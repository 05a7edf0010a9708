#!/usr/bin/env bash
# Server smoke test: pipes a small request file into the dae-serve binary
# (the real stdin path, streamed/batched responses in completion order)
# and diffs the tagged point lines against a cache-off run of the same
# file, every point simulated afresh.  Sorting both sides removes the
# completion-order nondeterminism; the cycles must match bit for bit.
#
# Scripts index: lint.sh runs the dae-lint static analysis gate
# (docs/LINTS.md), and this file smokes the server; CI runs both.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p dae-serve
bin=target/release/dae-serve
req=target/serve-smoke-requests.txt

cat > "$req" <<'EOF'
sweep id=a trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60 mode=stream
sweep id=b trace=MDG iterations=120 machines=dm,scalar windows=16,inf mds=60 mode=batch
sweep id=c kernel=i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0 iterations=150 machines=dm,swsm windows=8,32 mds=0,60 mode=stream
sweep id=d trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60 mode=stream
EOF

"$bin" --no-cache --stdin < "$req" | grep '^point' | sort > target/serve-smoke-expected.txt
"$bin" --stdin < "$req" > target/serve-smoke-raw.txt
grep '^point' target/serve-smoke-raw.txt | sort > target/serve-smoke-got.txt

diff -u target/serve-smoke-expected.txt target/serve-smoke-got.txt

# Every request must have completed with nothing dropped.
for id in a b c d; do
  grep -q "^done id=$id .*dropped=0.*status=ok" target/serve-smoke-raw.txt
done

# Robustness: malformed input and an oversized grid must each come back as
# a structured error — not a crash, not a hang — and must not stop the
# server answering a valid request on the same connection.
req_bad=target/serve-smoke-bad-requests.txt
{
  printf 'sweep id=bad trace=NOPE machines=dm windows=16 mds=60\n'
  printf 'warp id=x speed=9\n'
  printf '==== %% not even close\n'
  printf 'sweep id=huge trace=TRFD machines=dm,swsm,scalar windows=%s mds=%s\n' \
    "$(seq 1 200 | paste -sd, -)" "$(seq 0 149 | paste -sd, -)"
  printf 'sweep id=ok trace=TRFD iterations=120 machines=dm windows=16 mds=60 mode=stream\n'
} > "$req_bad"

"$bin" --stdin < "$req_bad" > target/serve-smoke-bad-raw.txt
n_errors=$(grep -c '^error' target/serve-smoke-bad-raw.txt)
[ "$n_errors" -eq 4 ] || {
  echo "expected 4 error lines, got $n_errors"; exit 1
}
grep -q '^error id=huge .*exceeds' target/serve-smoke-bad-raw.txt
grep -q '^done id=ok .*delivered=1.*status=ok' target/serve-smoke-bad-raw.txt

# Restart warmth: run a grid with --cache-dir, let the server exit cleanly
# (compacting the store), then relaunch on the same directory.  The second
# server must replay the persisted records (cache_loaded > 0), answer the
# repeated grid without a single simulation (done cached == delivered,
# cache_misses=0), and produce bit-for-bit the first run's point lines.
cache_dir=target/serve-smoke-cache
rm -rf "$cache_dir"
req_warm=target/serve-smoke-warm-requests.txt
{
  printf 'sweep id=w trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60 mode=stream\n'
  printf 'stats\n'
} > "$req_warm"

"$bin" --stdin --cache-dir "$cache_dir" < "$req_warm" > target/serve-smoke-cold-raw.txt
grep -q '^done id=w .*delivered=8.*cached=0.*status=ok' target/serve-smoke-cold-raw.txt
# The cold grid simulates, so its drainer runs on its own thread and the
# stats reply races it: only the field's presence is deterministic here;
# the warm run's cache_loaded=8 proves the persisted count below.
grep '^stats' target/serve-smoke-cold-raw.txt | grep -q 'cache_persisted='
[ -s "$cache_dir/sweep-cache.log" ] || { echo "cache log was not written"; exit 1; }

"$bin" --stdin --cache-dir "$cache_dir" < "$req_warm" > target/serve-smoke-warm-raw.txt
grep -q '^done id=w .*delivered=8.*cached=8.*status=ok' target/serve-smoke-warm-raw.txt \
  || { echo "restarted server did not answer the grid from the cache"; exit 1; }
# Every point of the warm grid is cached at submit, so the reader drains it
# itself: its done line is written before the pipelined stats line is read.
grep -n -m1 -e '^done id=w ' -e '^stats' target/serve-smoke-warm-raw.txt | grep -q ':done id=w ' \
  || { echo "the cache-hot grid was not drained before stats was read"; exit 1; }
warm_stats=$(grep '^stats' target/serve-smoke-warm-raw.txt)
echo "$warm_stats" | grep -Eq ' cache_hits=8( |$)' || { echo "warm hits: $warm_stats"; exit 1; }
echo "$warm_stats" | grep -q 'cache_loaded=8' || { echo "no records loaded: $warm_stats"; exit 1; }
echo "$warm_stats" | grep -q 'cache_misses=0' || { echo "warm run simulated: $warm_stats"; exit 1; }
grep '^point' target/serve-smoke-cold-raw.txt | sort > target/serve-smoke-cold-points.txt
grep '^point' target/serve-smoke-warm-raw.txt | sort > target/serve-smoke-warm-points.txt
diff -u target/serve-smoke-cold-points.txt target/serve-smoke-warm-points.txt

# The cache verb: a limit bounds the resident set, clear empties it.
printf 'cache limit=2\ncache clear\ncache limit=none\n' \
  | "$bin" --stdin --cache-dir "$cache_dir" > target/serve-smoke-cacheverb-raw.txt
grep -q '^cache entries=2 limit=2' target/serve-smoke-cacheverb-raw.txt
grep -q '^cache entries=0 limit=2' target/serve-smoke-cacheverb-raw.txt
grep -q '^cache entries=0 limit=none' target/serve-smoke-cacheverb-raw.txt

# Multi-client contention: a TCP server under a wide bulk grid from one
# client while a second client sends a single-point interactive request.
# Both must complete (the whole section is under `timeout`, so a priority
# inversion or a scheduler hang fails the smoke rather than wedging it).
port=7943
"$bin" --tcp 127.0.0.1:$port --no-cache > target/serve-smoke-tcp.log 2>&1 &
srv=$!
trap 'kill $srv 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if exec 3<>/dev/tcp/127.0.0.1/$port 2>/dev/null; then exec 3>&-; break; fi
  sleep 0.1
done

timeout 120 bash -c "
  exec 4<>/dev/tcp/127.0.0.1/$port
  printf 'sweep id=big trace=TRFD iterations=120 machines=dm,swsm windows=4,8,12,16,24,32,48,64 mds=0,20,40,60 mode=stream priority=bulk\n' >&4
  (
    exec 5<>/dev/tcp/127.0.0.1/$port
    printf 'sweep id=fast trace=TRFD iterations=120 machines=dm windows=16 mds=60 mode=stream priority=interactive\n' >&5
    grep -m1 '^done id=fast .*delivered=1.*status=ok' <&5 > target/serve-smoke-fast.txt
  ) &
  fastpid=\$!
  grep -m1 '^done id=big .*dropped=0.*status=ok' <&4 > target/serve-smoke-big.txt
  wait \$fastpid
"
[ -s target/serve-smoke-fast.txt ] || { echo "interactive client got no done line"; exit 1; }
[ -s target/serve-smoke-big.txt ] || { echo "bulk client got no done line"; exit 1; }
kill $srv 2>/dev/null || true
trap - EXIT

# Sharded serving: the same request file through a coordinator over two
# real backend processes must produce bit-for-bit the cache-off
# single-server point lines — each grid is forwarded whole to the shard owning
# its (trace, iterations), so the repeat grid (id=d) re-lands on whichever
# shard served id=a.  The coordinator's stats count the 8+4+8+8 points it
# forwarded (at dispatch, so the count holds with the sweeps still in
# flight) and no re-dispatch, timeout or malformed reply.  The trailing
# shutdown fans out to the fleet, so both backends exit on their own.
bp1=7951
bp2=7952
"$bin" --tcp 127.0.0.1:$bp1 > target/serve-smoke-shard1.log 2>&1 &
b1=$!
"$bin" --tcp 127.0.0.1:$bp2 > target/serve-smoke-shard2.log 2>&1 &
b2=$!
trap 'kill $b1 $b2 2>/dev/null || true' EXIT
for p in $bp1 $bp2; do
  for _ in $(seq 1 50); do
    if exec 3<>/dev/tcp/127.0.0.1/$p 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
  done
done

req_shard=target/serve-smoke-shard-requests.txt
{
  cat "$req"
  printf 'stats\n'
  printf 'shutdown\n'
} > "$req_shard"

timeout 120 "$bin" --coordinator 127.0.0.1:$bp1,127.0.0.1:$bp2 --stdin \
  < "$req_shard" > target/serve-smoke-shard-raw.txt
grep '^point' target/serve-smoke-shard-raw.txt | sort > target/serve-smoke-shard-got.txt
diff -u target/serve-smoke-expected.txt target/serve-smoke-shard-got.txt
for id in a b c d; do
  grep -q "^done id=$id .*dropped=0.*status=ok" target/serve-smoke-shard-raw.txt
done
shard_stats=$(grep '^stats' target/serve-smoke-shard-raw.txt)
echo "$shard_stats" | grep -q 'backends_total=2' \
  || { echo "coordinator stats missing backends_total: $shard_stats"; exit 1; }
echo "$shard_stats" | grep -q 'backends_alive=2' \
  || { echo "a backend died during the sharded smoke: $shard_stats"; exit 1; }
for field in forwarded_points=28 redispatched_points=0 coordinator_timeouts=0 \
  backend_reply_errors=0; do
  echo "$shard_stats" | grep -qw "$field" \
    || { echo "coordinator stats lack $field: $shard_stats"; exit 1; }
done
grep -q '^shutdown mode=drain' target/serve-smoke-shard-raw.txt

# The fanned-out shutdown must stop both backends without a kill.
for _ in $(seq 1 100); do
  if ! kill -0 $b1 2>/dev/null && ! kill -0 $b2 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 $b1 2>/dev/null || kill -0 $b2 2>/dev/null; then
  echo "backends outlived the coordinator shutdown"; exit 1
fi
wait $b1 $b2 2>/dev/null || true
trap - EXIT

echo "serve smoke OK: $(wc -l < target/serve-smoke-got.txt) streamed points match a cache-off run; malformed and oversized requests rejected cleanly; a restarted --cache-dir server answered its grid entirely from the persisted cache; concurrent bulk + interactive clients both completed; a two-backend coordinator reproduced the grid bit for bit and shut its fleet down"
