#!/usr/bin/env bash
# CI gate: neither parallel execution nor the result cache may change
# the science.
#
# 1. Runs the `parallel`-marked pytest suite (executor determinism,
#    report byte-identity across jobs counts).
# 2. Runs the `cache`-marked pytest suite (fingerprints, store,
#    checkpoint/resume).
# 3. Runs the `engine`-marked pytest suite (sparse/dense resolver
#    differential oracle, half-duplex and ground-truth pins).
# 4. Runs one experiment through the real CLI serially and with -j 2,
#    and requires the two saved reports to be byte-identical.
# 5. Runs E1 through the CLI twice against the same cache directory and
#    requires the warm-cache report to be byte-identical to the cold
#    one, with every cell served from the cache.
# 6. Runs E1 with the sparse resolver (default) and the dense oracle
#    (REPRO_RESOLVER=dense) and requires the two saved reports to be
#    byte-identical — the end-to-end differential gate for the
#    O(events) kernel.  Same gate on E6, the jammed 1-to-n path.
# 6a. Stored-baseline gate: runs E1, E6, E8, E15 and E18 at the
#    defaults (seed 0, quick) and requires each saved report to be
#    byte-identical to its file in results/baseline/ — a kernel speed-up
#    must not move any random stream.  E15 drives the serial run loop
#    directly at C in {1, 2, 4, 8} (jam groups at C=1, the channel
#    stage above it).
# 6b. Runs E1 serially and with --batch 8 and requires the two saved
#    reports to be byte-identical — the end-to-end gate for the
#    trial-batched kernel.  Then runs E1 with every execution knob
#    composed (--batch 8 -j 2 --cache) against a fresh cache directory,
#    cold and then warm: both reports must be byte-identical to the
#    serial one, and the warm run must be served 100% from the cache.
# 6c. Same gate on E8 (n up to 64 broadcast, includes the n=16 point):
#    the batched *protocol* layer (next_phase_batch/observe_batch lock-
#    step driver) must leave multi-node broadcast reports byte-identical
#    too, and the bench's --profile smoke run must succeed.
# 7. Runs the `arena`-marked pytest suite (genome search, corpus
#    replay, tournaments).
# 8. Runs a fixed-seed arena search through the real CLI serially and
#    with -j 2 and requires the two saved leaderboard reports — which
#    embed the best genome's fingerprint — to be byte-identical, plus
#    the default `duel` chart to be byte-identical across repeats.
# 8b. Multichannel gate: runs E18 serially, with -j 2, and with
#    --batch 8 (all three reports byte-identical — the batched one is
#    the end-to-end gate for the lockstep run_batch loop at C > 1),
#    then a fixed-seed arena search against the cz-c4
#    multichannel preset serially and with -j 2 (byte-identical
#    leaderboards), and replays the discovered attack from the corpus
#    demanding exact agreement.  Last, a longer cz-c4 search (seed 11,
#    4 generations of 12) must be byte-identical to the stored
#    results/baseline/arena/ARENA-SEARCH-cz-c4-seed11.json: the only
#    stored reference that covers the follower and the budget-cap
#    time-major trim, so a faster schedule layer cannot move them.
# 9. Runs the `telemetry`-marked pytest suite (sink, readers,
#    instrumentation coverage).
# 10. Runs E1 with and without --telemetry and requires the two saved
#    reports to be byte-identical (telemetry is write-only
#    observability), plus `telemetry summarize` to render the run.
# 11. Runs the `service`-marked pytest suite (job dedupe, HTTP
#    server/client end-to-end).
# 12. Service smoke gate: starts `repro-bcast serve` in the
#    background, submits the E1 sweep from step 6 through the real
#    client, and requires (a) the returned report to be byte-identical
#    to the CLI-saved one, (b) a warm resubmission against a fresh
#    server over the same cache directory to be served 100% from the
#    cache with zero executed task sets.
#
# Usage: scripts/check_parallel_determinism.sh [extra pytest args]

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism suite (pytest -m parallel) =="
python -m pytest -q -m parallel "$@"

echo "== cache suite (pytest -m cache) =="
python -m pytest -q -m cache "$@"

echo "== engine suite (pytest -m engine) =="
python -m pytest -q -m engine "$@"

echo "== CLI byte-identity: repro-bcast run E4 vs run E4 -j 2 =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
python -m repro.cli run E4 --seed 11 --save "$tmp/serial" > /dev/null
python -m repro.cli run E4 --seed 11 -j 2 --save "$tmp/parallel" > /dev/null
if ! cmp "$tmp/serial/E4.json" "$tmp/parallel/E4.json"; then
    echo "FAIL: parallel report differs from serial report" >&2
    exit 1
fi
echo "OK: E4 report byte-identical with -j 2"

echo "== CLI byte-identity: cold vs warm cache (repro-bcast run E1 --cache) =="
python -m repro.cli run E1 --seed 11 --cache --cache-dir "$tmp/cache" \
    --save "$tmp/cold" > /dev/null
python -m repro.cli run E1 --seed 11 --cache --cache-dir "$tmp/cache" \
    --save "$tmp/warm" > "$tmp/warm.out"
if ! cmp "$tmp/cold/E1.json" "$tmp/warm/E1.json"; then
    echo "FAIL: warm-cache report differs from cold report" >&2
    exit 1
fi
if ! grep -q "(100%" "$tmp/warm.out"; then
    echo "FAIL: warm run was not served entirely from the cache" >&2
    cat "$tmp/warm.out" >&2
    exit 1
fi
echo "OK: E1 report byte-identical cold vs warm, 100% cache hits"

echo "== CLI byte-identity: sparse resolver vs dense oracle (run E1) =="
python -m repro.cli run E1 --seed 11 --save "$tmp/sparse" > /dev/null
REPRO_RESOLVER=dense python -m repro.cli run E1 --seed 11 \
    --save "$tmp/dense" > /dev/null
if ! cmp "$tmp/sparse/E1.json" "$tmp/dense/E1.json"; then
    echo "FAIL: dense-oracle report differs from sparse report" >&2
    exit 1
fi
echo "OK: E1 report byte-identical sparse vs dense oracle"

echo "== stored baselines: run E1 E6 E8 E15 E18 --seed 0 vs results/baseline/ =="
for eid in E1 E6 E8 E15 E18; do
    python -m repro.cli run "$eid" --seed 0 --save "$tmp/baseline" > /dev/null
    if ! cmp "$tmp/baseline/$eid.json" "results/baseline/$eid.json"; then
        echo "FAIL: $eid report differs from results/baseline/$eid.json" >&2
        exit 1
    fi
done
echo "OK: E1 E6 E8 E15 E18 byte-identical to the stored baselines"

echo "== CLI byte-identity: sparse resolver vs dense oracle (run E6) =="
REPRO_RESOLVER=dense python -m repro.cli run E6 --seed 0 \
    --save "$tmp/e6-dense" > /dev/null
if ! cmp "$tmp/baseline/E6.json" "$tmp/e6-dense/E6.json"; then
    echo "FAIL: dense-oracle E6 report differs from sparse report" >&2
    exit 1
fi
echo "OK: E6 report byte-identical sparse vs dense oracle"

echo "== CLI byte-identity: serial vs trial-batched (run E1 -B 8) =="
python -m repro.cli run E1 --seed 11 --batch 8 --save "$tmp/batched" > /dev/null
if ! cmp "$tmp/sparse/E1.json" "$tmp/batched/E1.json"; then
    echo "FAIL: batched report differs from serial report" >&2
    exit 1
fi
echo "OK: E1 report byte-identical serial vs --batch 8"

echo "== CLI byte-identity: composed knobs (run E1 -B 8 -j 2 --cache, cold then warm) =="
for pass in cold warm; do
    python -m repro.cli run E1 --seed 11 --batch 8 -j 2 --cache \
        --cache-dir "$tmp/cache-b8" --save "$tmp/b8-$pass" > "$tmp/b8-$pass.out"
    if ! cmp "$tmp/sparse/E1.json" "$tmp/b8-$pass/E1.json"; then
        echo "FAIL: $pass --batch 8 -j 2 --cache report differs from serial report" >&2
        exit 1
    fi
done
if ! grep -q "(100%" "$tmp/b8-warm.out"; then
    echo "FAIL: warm --batch 8 -j 2 run was not served entirely from the cache" >&2
    cat "$tmp/b8-warm.out" >&2
    exit 1
fi
echo "OK: E1 report byte-identical with --batch 8 -j 2 --cache, cold and warm (100% hits)"

echo "== CLI byte-identity: serial vs batched protocols (run E8 -B 8) =="
python -m repro.cli run E8 --seed 11 --save "$tmp/e8-serial" > /dev/null
python -m repro.cli run E8 --seed 11 --batch 8 --save "$tmp/e8-batched" \
    > /dev/null
if ! cmp "$tmp/e8-serial/E8.json" "$tmp/e8-batched/E8.json"; then
    echo "FAIL: batched E8 report differs from serial report" >&2
    exit 1
fi
echo "OK: E8 report byte-identical serial vs --batch 8"

echo "== bench profile smoke run (bench_engine.py --profile --quick) =="
python scripts/bench_engine.py --profile --quick
echo "OK: profile mode runs"

echo "== arena suite (pytest -m arena) =="
python -m pytest -q -m arena "$@"

echo "== CLI byte-identity: arena search serial vs -j 2 =="
python -m repro.cli arena search --seed 11 --generations 2 --population 6 \
    --reps 2 --save "$tmp/arena-serial" > /dev/null
python -m repro.cli arena search --seed 11 --generations 2 --population 6 \
    --reps 2 -j 2 --save "$tmp/arena-parallel" > /dev/null
if ! cmp "$tmp/arena-serial/ARENA-SEARCH.json" \
         "$tmp/arena-parallel/ARENA-SEARCH.json"; then
    echo "FAIL: parallel arena search differs from serial" >&2
    exit 1
fi
echo "OK: arena search leaderboard (and best genome) byte-identical with -j 2"

echo "== multichannel gate: E18 serial vs -j 2, arena search over MC genomes =="
python -m repro.cli run E18 --seed 11 --save "$tmp/e18-serial" > /dev/null
python -m repro.cli run E18 --seed 11 -j 2 --save "$tmp/e18-parallel" > /dev/null
if ! cmp "$tmp/e18-serial/E18.json" "$tmp/e18-parallel/E18.json"; then
    echo "FAIL: parallel E18 report differs from serial report" >&2
    exit 1
fi
python -m repro.cli run E18 --seed 11 --batch 8 --save "$tmp/e18-batched" \
    > /dev/null
if ! cmp "$tmp/e18-serial/E18.json" "$tmp/e18-batched/E18.json"; then
    echo "FAIL: batched E18 report differs from serial report" >&2
    exit 1
fi
echo "OK: E18 report byte-identical serial vs --batch 8"
python -m repro.cli arena search --seed 11 --protocol cz-c4 \
    --generations 1 --population 4 --reps 2 \
    --save "$tmp/mc-arena-serial" --corpus "$tmp/mc-corpus.jsonl" > /dev/null
python -m repro.cli arena search --seed 11 --protocol cz-c4 \
    --generations 1 --population 4 --reps 2 -j 2 \
    --save "$tmp/mc-arena-parallel" > /dev/null
if ! cmp "$tmp/mc-arena-serial/ARENA-SEARCH.json" \
         "$tmp/mc-arena-parallel/ARENA-SEARCH.json"; then
    echo "FAIL: parallel multichannel arena search differs from serial" >&2
    exit 1
fi
if ! python -m repro.cli arena replay --corpus "$tmp/mc-corpus.jsonl" \
        | grep -q "exact"; then
    echo "FAIL: multichannel corpus replay was not exact" >&2
    exit 1
fi
python -m repro.cli arena search --seed 11 --protocol cz-c4 \
    --generations 4 --population 12 --reps 2 \
    --save "$tmp/mc-arena-stored" > /dev/null
if ! cmp "$tmp/mc-arena-stored/ARENA-SEARCH.json" \
         results/baseline/arena/ARENA-SEARCH-cz-c4-seed11.json; then
    echo "FAIL: cz-c4 arena search differs from its stored baseline" >&2
    exit 1
fi
echo "OK: E18 byte-identical with -j 2; MC arena search deterministic, replayable and equal to its stored baseline"

echo "== CLI byte-identity: duel default output across repeats =="
python -m repro.cli duel --points 2 --reps 2 > "$tmp/duel-a.out"
python -m repro.cli duel --points 2 --reps 2 > "$tmp/duel-b.out"
if ! cmp "$tmp/duel-a.out" "$tmp/duel-b.out"; then
    echo "FAIL: duel output is not deterministic" >&2
    exit 1
fi
echo "OK: duel chart byte-identical across repeats"

echo "== telemetry suite (pytest -m telemetry) =="
python -m pytest -q -m telemetry "$@"

echo "== CLI byte-identity: run E1 with vs without --telemetry =="
python -m repro.cli run E1 --seed 11 --save "$tmp/tele-off" > /dev/null
python -m repro.cli run E1 --seed 11 --telemetry "$tmp/tele" \
    --save "$tmp/tele-on" > /dev/null
if ! cmp "$tmp/tele-off/E1.json" "$tmp/tele-on/E1.json"; then
    echo "FAIL: telemetry-on report differs from telemetry-off report" >&2
    exit 1
fi
if ! python -m repro.cli telemetry summarize --dir "$tmp/tele" \
        > "$tmp/tele-summary.out"; then
    echo "FAIL: telemetry summarize failed on the recorded run" >&2
    exit 1
fi
if ! grep -q "executor.task" "$tmp/tele-summary.out"; then
    echo "FAIL: telemetry summary is missing executor spans" >&2
    cat "$tmp/tele-summary.out" >&2
    exit 1
fi
echo "OK: E1 report byte-identical with --telemetry; summarize renders spans"

echo "== service suite (pytest -m service) =="
python -m pytest -q -m service "$@"

echo "== service smoke: serve + submit vs CLI report, then warm resubmit =="
start_server() {
    # $1: log file.  Starts a server on an ephemeral port against the
    # shared service cache dir; sets $url and $server_pid (no command
    # substitution — a subshell would strand the pid).
    python -m repro.cli serve --port 0 --jobs 1 \
        --cache-dir "$tmp/service-cache" --telemetry "$tmp/service-tel" \
        > "$1" 2>&1 &
    server_pid=$!
    url=""
    for _ in $(seq 1 100); do
        url=$(grep -om1 'http://[0-9.:]*' "$1" 2>/dev/null || true)
        [ -n "$url" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "FAIL: service did not start" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "FAIL: service never printed its URL" >&2
        cat "$1" >&2
        exit 1
    fi
}

start_server "$tmp/serve-cold.log"
python -m repro.cli submit "$url" E1 --seed 11 \
    --save "$tmp/service-E1.json" > /dev/null 2> "$tmp/submit-cold.err"
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
if ! cmp "$tmp/sparse/E1.json" "$tmp/service-E1.json"; then
    echo "FAIL: service-returned report differs from the CLI-saved one" >&2
    exit 1
fi
echo "OK: service report byte-identical to CLI run --save"

# A fresh server over the same cache directory: the job must execute
# zero cells (every lookup warm) and still return identical bytes.
start_server "$tmp/serve-warm.log"
python -m repro.cli submit "$url" E1 --seed 11 \
    --save "$tmp/service-E1-warm.json" > /dev/null 2> "$tmp/submit-warm.err"
python -m repro.cli status "$url" > "$tmp/service-status.out"
kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null || true
if ! cmp "$tmp/sparse/E1.json" "$tmp/service-E1-warm.json"; then
    echo "FAIL: warm service report differs from the CLI-saved one" >&2
    exit 1
fi
if ! grep -q "cache 20/20 warm" "$tmp/submit-warm.err"; then
    echo "FAIL: warm resubmission was not served 100% from the cache" >&2
    cat "$tmp/submit-warm.err" >&2
    exit 1
fi
if ! grep -q " 0 misses" "$tmp/service-status.out"; then
    echo "FAIL: warm server reported cache misses" >&2
    cat "$tmp/service-status.out" >&2
    exit 1
fi
echo "OK: warm service resubmit byte-identical, 100% cache hits, 0 misses"
