//! Property fuzz of the wire-format parsers: no input line — raw bytes,
//! token soup, or a near-miss mutation of a valid request — may ever make
//! `parse_request` (or `parse_response`) panic.  Malformed lines must come
//! back as structured `Err`s, and whatever parses must survive a
//! print/parse round trip.
//!
//! The coordinator's routing core is fuzzed on the same inputs, fed to it
//! as backend lines: a malformed, truncated or misdirected backend line
//! must never panic the core — `Router::on` counts it as a reply error or
//! ignores it, and routes nothing.

use dae_serve::route::{Input, Router};
use dae_serve::{parse_request, parse_response, CacheAction, Request};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Feeds `lines` to a fresh `backends`-backend routing core, each as a
/// line from the next backend in turn; the points left pending.
fn pending_after(backends: usize, lines: &[String]) -> usize {
    let mut core = Router::<u8>::new(backends, 64, Duration::from_secs(30));
    let now = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        core.on(Input::Line(i % backends, line), now);
    }
    core.pending_points()
}

/// A fragment drawn from the protocol's own vocabulary: verbs, field
/// names, values, separators — the inputs most likely to reach deep
/// parser states.
fn vocab() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("sweep".to_string()),
        Just("cancel".to_string()),
        Just("stats".to_string()),
        Just("shutdown".to_string()),
        Just("cache".to_string()),
        Just("clear".to_string()),
        Just("limit=4".to_string()),
        Just("limit=none".to_string()),
        Just("limit=0".to_string()),
        Just("limit=".to_string()),
        Just("id=a".to_string()),
        Just("id=".to_string()),
        Just("trace=TRFD".to_string()),
        Just("trace=".to_string()),
        Just("kernel=i;ld:%0;add:%1,$0".to_string()),
        Just("kernel=;;;".to_string()),
        Just("iterations=120".to_string()),
        Just("iterations=99999999999999999999".to_string()),
        Just("machines=dm,swsm".to_string()),
        Just("machines=,".to_string()),
        Just("windows=16".to_string()),
        Just("windows=0".to_string()),
        Just("mds=0,60".to_string()),
        Just("mds=-1".to_string()),
        Just("mode=stream".to_string()),
        Just("mode=sideways".to_string()),
        Just("deadline_ms=250".to_string()),
        Just("deadline_ms=0".to_string()),
        Just("deadline_ms=-7".to_string()),
        Just("deadline_ms=soon".to_string()),
        Just("priority=interactive".to_string()),
        Just("priority=bulk".to_string()),
        Just("priority=normal".to_string()),
        Just("priority=urgent".to_string()),
        Just("priority=".to_string()),
        Just("mode=abort".to_string()),
        Just("=".to_string()),
        Just("==".to_string()),
        Just("sweep=sweep".to_string()),
        (0u32..0x80)
            .prop_map(|c| { char::from_u32(c).map_or_else(String::new, |c| c.to_string()) }),
    ]
}

/// A fragment drawn from the *response* vocabulary — the lines a backend
/// sends a coordinator, plus near-miss field values.
fn response_vocab() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("point".to_string()),
        Just("done".to_string()),
        Just("cancelled".to_string()),
        Just("busy".to_string()),
        Just("error".to_string()),
        Just("stats".to_string()),
        Just("cache".to_string()),
        Just("shutdown".to_string()),
        Just("id=x1".to_string()),
        Just("id=x999999".to_string()),
        Just("id=".to_string()),
        Just("index=0".to_string()),
        Just("index=-3".to_string()),
        Just("machine=dm".to_string()),
        Just("machine=toaster".to_string()),
        Just("window=16".to_string()),
        Just("window=unlimited".to_string()),
        Just("md=60".to_string()),
        Just("cycles=1234".to_string()),
        Just("cycles=many".to_string()),
        Just("points=4".to_string()),
        Just("delivered=4".to_string()),
        Just("delivered=99999999999999999999".to_string()),
        Just("dropped=1".to_string()),
        Just("aborted=1".to_string()),
        Just("failed=1".to_string()),
        Just("cached=2".to_string()),
        Just("status=ok".to_string()),
        Just("status=error".to_string()),
        Just("status=timeout".to_string()),
        Just("message=point 0 failed: injected".to_string()),
        Just("queued=3".to_string()),
        Just("limit=2".to_string()),
        Just("retry_after_ms=10".to_string()),
        Just("entries=5".to_string()),
        Just("mode=drain".to_string()),
        Just("mode=abort".to_string()),
        Just("=".to_string()),
        (0u32..0x80)
            .prop_map(|c| { char::from_u32(c).map_or_else(String::new, |c| c.to_string()) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes, lossily decoded: the parser returns Ok or Err,
    /// never panics, and never accepts a line with interior NULs as a
    /// sweep.
    #[test]
    fn arbitrary_bytes_never_panic_the_request_parser(bytes in vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&line);
        let _ = parse_response(&line);
    }

    /// Token soup from the protocol's own vocabulary, glued with spaces:
    /// the highest-coverage malformed inputs.  Whatever parses as a
    /// request must survive a print → parse round trip.
    #[test]
    fn vocabulary_soup_never_panics_and_roundtrips_when_accepted(
        tokens in vec(vocab(), 0..12),
    ) {
        let line = tokens.join(" ");
        if let Ok(request) = parse_request(&line) {
            let printed = match &request {
                Request::Sweep(sweep) => sweep.to_string(),
                Request::Cancel { id } => format!("cancel id={id}"),
                Request::Stats => "stats".to_string(),
                Request::Cache { action } => match action {
                    CacheAction::Clear => "cache clear".to_string(),
                    CacheAction::Limit(Some(n)) => format!("cache limit={n}"),
                    CacheAction::Limit(None) => "cache limit=none".to_string(),
                },
                Request::Shutdown { mode } => format!("shutdown mode={mode}"),
            };
            let reparsed = parse_request(&printed).unwrap_or_else(|e| {
                panic!("printed form of accepted request must reparse: '{printed}': {e:?}")
            });
            prop_assert_eq!(request, reparsed);
        }
        let _ = parse_response(&line);
    }

    /// Single-field mutations of a known-good sweep line: flip one field
    /// to an arbitrary value; the parser must still never panic.
    #[test]
    fn mutated_sweeps_never_panic(
        field in 0usize..8,
        value in vec(any::<u8>(), 0..24),
    ) {
        let fields = [
            "id=fz",
            "trace=TRFD",
            "iterations=120",
            "machines=dm",
            "windows=16",
            "mds=60",
            "mode=stream",
            "priority=normal",
        ];
        let value = String::from_utf8_lossy(&value).into_owned();
        let mutated: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if i == field {
                    let name = f.split('=').next().expect("field has a name");
                    format!("{name}={value}")
                } else {
                    (*f).to_string()
                }
            })
            .collect();
        let line = format!("sweep {}", mutated.join(" "));
        let _ = parse_request(&line);
    }

    /// Arbitrary bytes as backend lines: a two- and a three-backend
    /// routing core absorb any line sequence without panicking (malformed
    /// lines count as reply errors, parsable lines for unknown subrequest
    /// ids are ignored).
    #[test]
    fn arbitrary_backend_replies_never_panic_the_coordinator(
        lines in vec(vec(any::<u8>(), 0..160), 0..8),
    ) {
        let lines: Vec<String> =
            lines.iter().map(|b| String::from_utf8_lossy(b).into_owned()).collect();
        prop_assert_eq!(pending_after(2, &lines), 0);
        prop_assert_eq!(pending_after(3, &lines), 0);
    }

    /// Token soup from the response vocabulary — the highest-coverage
    /// near-valid backend replies (truncated `done` lines, misdirected
    /// control acks, out-of-range counts) — never panics the routing core.
    #[test]
    fn response_soup_never_panics_the_coordinator(
        batches in vec(vec(response_vocab(), 0..10), 1..4),
    ) {
        let lines: Vec<String> = batches.iter().map(|tokens| tokens.join(" ")).collect();
        prop_assert_eq!(pending_after(2, &lines), 0);
        prop_assert_eq!(pending_after(3, &lines), 0);
    }

    /// The `priority=` field specifically: any value either parses as one
    /// of the three scheduling bands (and then survives the print → parse
    /// round trip) or comes back as a structured error carrying the
    /// request id — never a panic.
    #[test]
    fn arbitrary_priority_values_error_structurally(value in vec(any::<u8>(), 0..24)) {
        let value = String::from_utf8_lossy(&value).into_owned();
        let line = format!(
            "sweep id=fz trace=TRFD iterations=120 machines=dm windows=16 \
             mds=60 mode=stream priority={value}"
        );
        match parse_request(&line) {
            Ok(Request::Sweep(sweep)) => {
                let reparsed = parse_request(&sweep.to_string());
                prop_assert_eq!(Ok(Request::Sweep(sweep)), reparsed);
            }
            Ok(other) => prop_assert!(false, "a sweep line cannot parse as {:?}", other),
            Err(error) => {
                prop_assert!(!error.message.is_empty());
                prop_assert_eq!(error.id.as_deref(), Some("fz"));
            }
        }
    }
}
