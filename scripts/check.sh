#!/bin/sh
# check.sh — the repo's CI gate. Runs formatting, vet, the race-enabled
# test subset for the concurrency-sensitive packages, and the full test
# suite. Usage: scripts/check.sh (or `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== zero-alloc hot-path guards (race-enabled quick gate) =="
# The allocation-free serving/step contract (DESIGN.md §13): steady-state
# simulator stepping and fixed-point forward must not allocate, and
# Requantize must refresh parameters in place.
go test -race -count 1 -run 'TestStepSteadyStateZeroAlloc' ./internal/sim/
go test -race -count 1 -run 'TestFixedForwardIntoZeroAlloc|TestRequantizeTracksRetrainedWeights' ./internal/nn/

echo "== go test -race (telemetry, sim) =="
go test -race ./internal/telemetry/... ./internal/sim/...

echo "== flight recorder + metrics history + trace stitching (race-enabled quick gate) =="
# The incident/tracing layer (DESIGN.md §15): concurrent ring writes,
# history sampling, cross-process span stitching, and the jobs=1 vs
# jobs=N stitched span-tree equality contract.
go test -race -count 1 -run 'FlightRecorder|MetricsHistory|AnchorSpans|AdoptSpans|SpanRefHeader' ./internal/telemetry/
go test -race -count 1 -run 'Stitched|Incident|FleetBundle|HedgeOutcome|MetricsHistory' ./internal/cluster/
go test -race -count 1 -run 'Incident|MetricsHistory|InboundTraceContext|RequestSpans' ./internal/service/

echo "== go test -race (parallel engine, trace cache) =="
go test -race -short ./internal/experiments/... ./internal/trace/...

echo "== go test -race (resilience, service, cluster, artifact store) =="
go test -race ./internal/resilience/... ./internal/service/... ./internal/cluster/... ./internal/cas/...

echo "== durable artifact store crash-safety gates (DESIGN.md §14) =="
# SIGKILL mid-write must leave the store recoverable (torn temps
# quarantined, committed blobs intact), and the index parser must never
# panic or accept a corrupt index: a short live fuzz on top of the
# committed FuzzCASIndex corpus.
go test -race -count 1 -run 'TestSIGKILLMidWriteRecovery' ./internal/cas/
go test -run xxx -fuzz 'FuzzCASIndex' -fuzztime 10s ./internal/cas/

echo "== go test -race (fault tolerance) =="
go test -race -run 'Fault|Masking|Resume|Checkpoint' \
    ./internal/checkpoint/... ./internal/faults/... ./internal/experiments/...

echo "== pooled-path benchmark smoke =="
go test -run xxx -bench BenchmarkMatrixPool -benchtime 1x ./internal/experiments/

echo "== go test (fuzz corpus) =="
go test -run Fuzz ./...

echo "== disabled-telemetry overhead budget (counters, trace, spans, explain, alloc attribution) =="
go test -run DisabledHotPath -count 1 ./internal/telemetry/

echo "== profiling round-trip (real allocs profile through pprofparse) =="
go test -run TestAllocsProfileRoundTrip -count 1 ./internal/pprofparse/

echo "== bench profiling smoke (capture + decode + top tables) =="
go run ./cmd/bench -profile -quick >/dev/null

echo "== soak smoke (resembled chaos/soak harness, chrome trace) =="
tracetmp=$(mktemp -d)
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/resembled -soak -trace-chrome "$tracetmp/soak-trace.json"

echo "== cluster soak smoke + incident demo (resemblefront chaos harness, race-enabled) =="
# Includes the kill-mid-run → resume-on-next-backend phase (byte-identity
# against a single instance) and the store-corruption arm audit. The
# incident_demo wrapper additionally fails unless the kill phase emitted
# a failover fleet bundle and a valid stitched cross-process Chrome
# trace (DESIGN.md §15).
sh scripts/incident_demo.sh "$tracetmp/incidents"

echo "== chrome trace validity (parses, ts monotone per track) =="
go run ./cmd/resemble -workload 433.milc -controller resemble-t -n 4000 \
    -trace-chrome "$tracetmp/run-trace.json" -explain "$tracetmp/decisions.jsonl" >/dev/null
go run ./cmd/bench -validate-chrome "$tracetmp/run-trace.json"
go run ./cmd/bench -validate-chrome "$tracetmp/soak-trace.json"

echo "== bench regression gate =="
# Compares the two newest BENCH_*.json files; skips cleanly when the
# history has fewer than two entries.
go run ./cmd/bench -compare-only

echo "== go test ./... =="
go test ./...

echo "== OK =="
