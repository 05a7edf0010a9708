//! Worker-pool lifecycle: the vendored rayon stub's workers must persist
//! across separate sweep invocations (keeping thread-local `SimPool`s
//! warm), shut down cleanly on drop, and survive panicking closures.
//!
//! The warm-pool assertions use process-wide monotone counters
//! (`dae::machines::pool_diagnostics`, `rayon::global_pool_stats`); tests
//! in this binary may run concurrently, so every assertion is phrased over
//! counter *deltas* that concurrent work can only push further in the
//! asserted direction.

mod common;

use common::direct_cycles;
use dae::core::{Machine, SweepPoint, SweepSession, TraceId, WindowSpec};
use dae::machines::pool_diagnostics;
use dae::PerfectProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn grid(id: TraceId) -> Vec<SweepPoint> {
    vec![
        (id, Machine::Decoupled, WindowSpec::Entries(16), 60),
        (id, Machine::Decoupled, WindowSpec::Entries(32), 60),
        (id, Machine::Superscalar, WindowSpec::Entries(16), 60),
        (id, Machine::Superscalar, WindowSpec::Entries(32), 60),
        (id, Machine::Decoupled, WindowSpec::Entries(64), 0),
        (id, Machine::Superscalar, WindowSpec::Entries(64), 0),
    ]
}

/// Thread-local `SimPool`s survive between two *separate* sweep
/// invocations on one session: the second sweep checks recycled unit
/// scratch out of warm pools instead of allocating fresh, and no new
/// worker threads are spawned for it.
#[test]
fn sim_pools_stay_warm_across_separate_sweep_invocations() {
    let mut session = SweepSession::new();
    // This test pins the *pool* lifecycle, so the second sweep must really
    // simulate: the result cache would answer it without touching a pool.
    session.set_cache_enabled(false);
    let id = session.pin_program(PerfectProgram::Mdg, 120);

    // First invocation: fills every worker's thread-local pool (and
    // spawns the global pool's workers if no other test got there first).
    let first = session.sweep_multi(&grid(id));

    let pools_before = pool_diagnostics();
    let workers_before = rayon::global_pool_stats().workers_spawned;

    // Second, separate invocation on the warm session.
    let second = session.sweep_multi(&grid(id));

    let pools_after = pool_diagnostics();
    let workers_after = rayon::global_pool_stats().workers_spawned;

    assert_eq!(first, second, "warm reuse must not change results");
    assert!(
        pools_after.warm_unit_takes > pools_before.warm_unit_takes,
        "the second sweep must reuse pooled unit scratch \
         (warm takes before: {}, after: {})",
        pools_before.warm_unit_takes,
        pools_after.warm_unit_takes
    );
    assert_eq!(
        workers_before, workers_after,
        "a second sweep invocation must not spawn new workers"
    );
}

/// Re-running one pinned program also reuses the stream-keyed consumer
/// count templates (the memcpy-instead-of-dependence-walk path).
#[test]
fn warm_sessions_hit_the_stream_templates() {
    let mut session = SweepSession::new();
    // As above: the repeat must reach the simulator, not the result cache.
    session.set_cache_enabled(false);
    let id = session.pin_program(PerfectProgram::Trfd, 100);
    let dm_grid: Vec<SweepPoint> = (0..4)
        .map(|i| (id, Machine::Decoupled, WindowSpec::Entries(8 << i), 60))
        .collect();
    let _ = session.sweep_multi(&dm_grid);
    let before = pool_diagnostics();
    let _ = session.sweep_multi(&dm_grid);
    let after = pool_diagnostics();
    assert!(
        after.template_hits > before.template_hits,
        "re-sweeping a pinned program must hit the cached consumer-count \
         templates (before: {}, after: {})",
        before.template_hits,
        after.template_hits
    );
}

/// Dropping a dedicated pool joins its workers after finishing the queued
/// work — no hang, no abandoned jobs.
#[test]
fn dropping_a_pool_shuts_down_cleanly() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let pool = rayon::ThreadPool::new(2);
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..32 {
        let ran = Arc::clone(&ran);
        pool.spawn(move || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    let out: Vec<u64> = pool.map((0u64..16).collect(), |x| x + 1);
    assert_eq!(out.len(), 16);
    let stats = pool.stats();
    assert_eq!(stats.workers_spawned, 2);
    drop(pool); // joins: must return, and the queued tasks must have run
    assert_eq!(ran.load(Ordering::Relaxed), 32);
}

/// A panicking closure propagates to the caller instead of deadlocking the
/// queue, and the pool keeps serving work afterwards.
#[test]
fn a_panicking_sweep_closure_propagates_and_the_pool_survives() {
    let pool = rayon::ThreadPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _: Vec<u64> = pool.map((0u64..24).collect(), |x| {
            assert!(x != 11, "injected failure");
            x
        });
    }));
    assert!(result.is_err(), "the worker panic must reach the caller");
    // Same pool, next call: the queue must not be deadlocked or poisoned.
    let healthy: Vec<u64> = pool.map((0u64..24).collect(), |x| x * 2);
    assert_eq!(healthy[23], 46);
}

/// The same guarantee through the session layer's streaming path: a panic
/// on a worker is re-thrown to the stream consumer, and the global pool
/// (shared with every other sweep) stays healthy.
#[test]
fn global_pool_survives_panicking_parallel_calls() {
    use rayon::prelude::*;

    let result = catch_unwind(|| {
        let _: Vec<u64> = vec![1u64, 2, 3]
            .into_par_iter()
            .map(|x| {
                assert!(x != 2, "injected failure");
                x
            })
            .collect();
    });
    assert!(result.is_err());

    // A full sweep right after must work on the same global pool.
    let mut session = SweepSession::new();
    let id = session.pin_program(PerfectProgram::Qcd, 60);
    let cycles = session.sweep_multi(&grid(id));
    assert!(cycles.iter().all(|&c| c > 0));
}

/// Randomized stress over the work-stealing deques: four external
/// submitter threads race fire-and-forget spawns, skew-cost batches and a
/// batch that panics while its sibling spans sit exposed to thieves, all
/// on one 4-worker pool. Every batch returns in order, the panic reaches
/// only its own submitter, every spawned task runs by drop time, and the
/// pool's accounting is exact.
#[test]
fn randomized_push_steal_stress_survives_mid_flight_panics() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let pool = rayon::ThreadPool::new(4);
    let spawned_ran = Arc::new(AtomicUsize::new(0));
    let expected_spawns = Arc::new(AtomicUsize::new(0));
    let expected_items = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for submitter in 0u64..4 {
            let pool = &pool;
            let spawned_ran = Arc::clone(&spawned_ran);
            let expected_spawns = Arc::clone(&expected_spawns);
            let expected_items = Arc::clone(&expected_items);
            scope.spawn(move || {
                // Deterministic xorshift per submitter: reproducible op
                // mixes, diverging interleavings.
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (submitter + 1);
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _round in 0..12 {
                    match next() % 4 {
                        0 => {
                            expected_spawns.fetch_add(16, Ordering::Relaxed);
                            for _ in 0..16 {
                                let ran = Arc::clone(&spawned_ran);
                                pool.spawn(move || {
                                    ran.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        }
                        1 => {
                            expected_items.fetch_add(96, Ordering::Relaxed);
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                let _: Vec<u64> = pool.map((0u64..96).collect(), |x| {
                                    for _ in 0..(x % 13) * 40 {
                                        std::hint::spin_loop();
                                    }
                                    assert!(x != 57, "injected failure");
                                    x
                                });
                            }));
                            assert!(result.is_err(), "the batch panic must propagate");
                        }
                        _ => {
                            expected_items.fetch_add(128, Ordering::Relaxed);
                            let skew = next() % 11;
                            let out: Vec<u64> = pool.map((0u64..128).collect(), move |x| {
                                // Skewed spin: early items cost more, so
                                // idle workers must steal the tail.
                                for _ in 0..(x % (skew + 2)) * 25 {
                                    std::hint::spin_loop();
                                }
                                x.wrapping_mul(2_654_435_761).rotate_left((x % 31) as u32)
                            });
                            let expect: Vec<u64> = (0u64..128)
                                .map(|x| x.wrapping_mul(2_654_435_761).rotate_left((x % 31) as u32))
                                .collect();
                            assert_eq!(out, expect, "stolen spans must land in order");
                        }
                    }
                }
            });
        }
    });

    let stats = pool.stats();
    assert_eq!(
        stats.items,
        expected_items.load(Ordering::Relaxed) as u64,
        "every batch item is accounted exactly once, panicked batches included"
    );
    assert!(
        stats.local_pops + stats.steals > 0,
        "the deques must have moved work (local pops: {}, steals: {})",
        stats.local_pops,
        stats.steals
    );
    assert_eq!(stats.task_panics, 0, "no fire-and-forget task panics here");

    // Drop drains the queued fire-and-forget tasks and joins.
    let expected = expected_spawns.load(Ordering::Relaxed);
    drop(pool);
    assert_eq!(spawned_ran.load(Ordering::Relaxed), expected);
}

/// Differential guarantee for the stealing scheduler: pooled sweeps are
/// bit-for-bit equal to a naive sequential reference at every worker count
/// from 1 through 8 and beyond — scheduling order, stealing and span
/// splitting can never change a simulated cycle count.
#[test]
fn pooled_sweeps_match_the_naive_reference_at_every_worker_count() {
    let trace = PerfectProgram::Trfd.workload().trace(80);
    let mut grid: Vec<(Machine, WindowSpec, u64)> = Vec::new();
    for &window in &[4usize, 8, 16, 32, 64, 128] {
        for &md in &[0u64, 30, 60] {
            grid.push((Machine::Decoupled, WindowSpec::Entries(window), md));
            grid.push((Machine::Superscalar, WindowSpec::Entries(window), md));
        }
    }
    grid.push((Machine::Scalar, WindowSpec::Entries(1), 60));

    let eval = |&(machine, window, md): &(Machine, WindowSpec, u64)| {
        direct_cycles(machine, &trace, window, md)
    };
    let naive: Vec<u64> = grid.iter().map(eval).collect();

    for threads in [1usize, 2, 3, 4, 5, 6, 7, 8, 12] {
        let pool = rayon::ThreadPool::new(threads);
        let pooled: Vec<u64> = pool.map(grid.clone(), |point| eval(&point));
        assert_eq!(
            pooled, naive,
            "a {threads}-worker pool must match the sequential reference bit for bit"
        );
    }
}
