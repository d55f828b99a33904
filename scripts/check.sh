#!/usr/bin/env bash
# Tier-2 verification gate: gofmt, static analysis, and race-detector runs on the
# concurrent packages. Tier-1 (go build && go test ./...) checks behavior;
# this script checks the invariants behavior tests can miss — float equality
# on controller state, wall-clock leaks into simulated kernels (direct or
# transitive through the call graph), layering violations, unguarded captures
# in Pool callbacks, discarded errors (including deferred calls),
# nondeterminism in flight-replayed code, atomic/plain access mixes, unbounded
# goroutine spawns, and allocation growth on hot paths — then hammers the
# concurrent hot paths under -race.
#
# Usage: scripts/check.sh            (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
  echo "gofmt: these files need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

echo "==> lint self-check: rule filtering and JSON output on internal/analysis"
# The linter's own package must stay clean under its full rule set, and the
# -rule / -json plumbing must keep producing exit 0 + a JSON array — these
# are the interfaces CI annotations consume.
go run ./cmd/lint -rule determinism,atomicmix,leakspawn,hotescape ./internal/analysis/...
lint_json="$(go run ./cmd/lint -json ./internal/analysis/...)"
[[ "$lint_json" == "["* ]] || { echo "lint -json did not emit a JSON array" >&2; exit 1; }

echo "==> go test -race (concurrent packages)"
go test -race ./internal/parallel/... ./internal/frontier/... ./internal/sssp/... \
    ./internal/obs/... ./internal/flight/... ./internal/core/... \
    ./internal/perf/... ./internal/incident/...

echo "==> go test -race -cpu 1,2,4: advance filter contract, scan shortcut, serial rounds, scratch reuse, iteration views, detectors, spans"
# Out must be the ascending, duplicate-free set of lowered vertices at every
# worker count, and skipping the degree scan must not change the schedule.
# The single-writer kernel must match the atomic one round for round, its
# cutoff must hold at the boundary, and solves made of serial rounds must be
# bit-identical at every pool size. Solve memory comes from an owned free
# list, so the reuse and allocation gates hold here too: warmed batches
# allocate no scratch, the lazy queue cycle allocates nothing, and a warmed
# self-tuning solve allocates nothing beyond its distance array.
go test -race -cpu 1,2,4 -count=1 \
    -run 'TestAdvanceFilterContract|TestAdvanceScanShortcut|TestSerialKernelMatchesAtomic|TestSerialCutoffBoundary|TestWorkerCountDeterminism|TestBatchScratchReuse|TestLazyFarSteadyStateAllocs' \
    ./internal/sssp/
go test -race -cpu 1,2,4 -count=1 -run 'TestSolveSteadyStateAllocs' ./internal/core/
# Every per-iteration view derives from one record, so the profile and
# flight outputs of fixed solves are pinned at every GOMAXPROCS; the
# detector state machine must match its reference scanners on the fuzz
# seeds; and span slabs come from the observer's own free list, so the
# span gate holds by construction here too.
go test -race -cpu 1,2,4 -count=1 -run 'TestIterationViewsGolden' .
go test -race -cpu 1,2,4 -count=1 -run 'FuzzDetect' ./internal/flight/
go test -race -cpu 1,2,4 -count=1 -run 'TestSpanSteadyStateAllocs' ./internal/sssp/

echo "==> go test -race: concurrent solves on one shared observer (API level)"
# Two racing solves must stay bit-identical to their sequential runs while
# recording disjoint span trees and exact fleet-equals-sum-of-scopes metrics.
go test -race -run 'TestConcurrentSolvesIsolated' -count=1 .

echo "==> zero-allocation steady-state gates (obs off, obs on, spans on, flight on, lazy far queue, whole self-tuning solve, tsdb sampler, profiler labels)"
go test -run 'TestAdvanceSteadyStateAllocs|TestObsSteadyStateAllocs|TestSpanSteadyStateAllocs|TestLazyFarSteadyStateAllocs' -count=1 ./internal/sssp/
go test -run 'TestTracerSteadyStateAllocs|TestEnergyMeterSteadyStateAllocs|TestTSDBSampleSteadyStateAllocs|TestExemplarSteadyStateAllocs' -count=1 ./internal/obs/
go test -run 'TestFlightSteadyStateAllocs|TestSolveSteadyStateAllocs' -count=1 ./internal/core/
go test -run 'TestContinuousProfilerSolverPathAllocs' -count=1 ./internal/perf/

echo "==> continuous-profiler sim-neutrality gate: bit-identical results with profiling on"
go test -run 'TestContinuousProfilerSimNeutral' -count=1 ./internal/perf/

echo "==> flight-recorder gates: record/replay determinism + same-seed diff"
flightbin="$(mktemp -d)"
trap 'rm -rf "$flightbin"' EXIT
go build -o "$flightbin/flight" ./cmd/flight

# Replay determinism on both advance paths: a recorded log must re-execute
# the controller trajectory bit-identically.
"$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
    -advance vertex -o "$flightbin/vertex.jsonl" 2>/dev/null
"$flightbin/flight" replay -q "$flightbin/vertex.jsonl"
"$flightbin/flight" record -dataset wiki -scale 0.01 -seed 7 -P 500 -workers 4 \
    -advance edge -o "$flightbin/edge.jsonl" 2>/dev/null
"$flightbin/flight" replay -q "$flightbin/edge.jsonl"

# Same-seed diff: two sequential (-workers 1) runs of one configuration must
# produce bit-identical logs.
"$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
    -workers 1 -o "$flightbin/run-a.jsonl" 2>/dev/null
"$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
    -workers 1 -o "$flightbin/run-b.jsonl" 2>/dev/null
"$flightbin/flight" diff "$flightbin/run-a.jsonl" "$flightbin/run-b.jsonl" >/dev/null

# Worker-count diff: the same Cal solve on 4 workers must log exactly what 1
# worker logs. It holds because every round of this input stays under the
# single-writer cutoff (n·maxDeg < 2^14 with maxDeg 4), so no round reaches
# the pool. Rounds that do run in parallel (Wiki's large frontiers) still
# differ in X2 with the schedule, so the gate uses the Cal input only.
"$flightbin/flight" record -dataset cal -scale 0.01 -seed 42 -P 500 -device TK1 \
    -workers 4 -o "$flightbin/run-w4.jsonl" 2>/dev/null
"$flightbin/flight" diff "$flightbin/run-a.jsonl" "$flightbin/run-w4.jsonl" >/dev/null

echo "==> incident-capture smoke: forced detector fire writes a complete, replayable bundle"
# A live solve with the online detector sensitized to fire on any healthy
# run (escape band 1.01 around an absurd set-point) must leave a bundle
# containing every artifact, with the manifest written last as the
# completeness marker, whose flight log replays bit-exactly.
go build -o "$flightbin/sssp" ./cmd/sssp
incdir="$flightbin/incidents"
"$flightbin/sssp" -dataset cal -scale 0.01 -P 1e9 \
    -detect-escape 1 -detect-band 1.01 -detect-bootstrap 1 \
    -incident-dir "$incdir" >/dev/null
bundle="$(ls -d "$incdir"/incident-* | head -1)"
for f in manifest.json finding.json flight.jsonl series.json energy.json health.json goroutines.txt; do
  [[ -s "$bundle/$f" ]] || { echo "incident bundle missing $f in $bundle" >&2; exit 1; }
done
"$flightbin/flight" replay -q "$bundle/flight.jsonl"
grep -q '"schema": "energysssp-incident/v1"' "$bundle/manifest.json" \
    || { echo "incident manifest schema mismatch" >&2; exit 1; }

echo "==> perfgate: committed trajectory parses and judges clean"
# Always-on smoke: the committed snapshots + trajectory must load and the
# latest entry must classify without regressions (compare never fails a
# young or machine-mismatched history, only a broken one).
go run ./cmd/perfgate compare

if [[ "${PERF_GATE:-0}" == "1" ]]; then
  echo "==> perfgate: statistical regression gate (PERF_GATE=1)"
  # Opt-in because it is only meaningful right after a scripts/bench.sh run
  # on the same machine the history was recorded on.
  go run ./cmd/perfgate gate -v
fi

echo "==> check.sh: all gates green"
