#!/bin/sh
# Repository gate: formatting + vet + build + full tests (including the
# differential oracle, metamorphic properties, checked-in fuzz corpora and
# golden-run regression gates), then a race-detector pass and a coverage
# floor over internal/...
#
# The race pass runs in -short mode: the slow training-experiment tests
# (exp/core at Quick scale, minutes under -race) and the examples smoke
# test (compiles six binaries) skip themselves via testing.Short(), while
# the worker-count equivalence tests in par, tensor and mapping (the
# differential oracle) and rram's crossbar-confinement test still run —
# including the checkpoint/resume equivalence suite in internal/core,
# which deliberately does NOT skip in -short — keeping the pass under a
# minute.
#
# RRAMFT_FUZZ=1 additionally runs each native fuzz target under the
# coverage-guided fuzzer for ~10 s (the checked-in seed corpora under
# internal/*/testdata/fuzz/ always run, as part of the plain `go test`).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Docs gates: every exported identifier in the observability layer, the
# CLI helpers, the maintenance/serving layers, the hot-path substrate
# packages and the fault/detect/prune/remap mechanism layers the repair
# stages are built from must carry a doc comment (these packages define
# user-facing contracts — telemetry, serving API, the batched-vs-per-sample
# equivalence rules — so undocumented API is a bug), and the README CLI
# reference must match the binaries' own -help-md output. nn and tensor
# are hot-path packages too: the crossbar read cache relies on the
# nn.WeightStore Read contract.
for pkg in internal/obs internal/cliutil internal/repair internal/cluster \
           internal/rram internal/mapping internal/serve internal/perf \
           internal/chaos internal/remap internal/prune internal/fault \
           internal/detect internal/nn internal/tensor; do
    undocumented=$(awk '
        /^\/\// { commented = 1; next }
        /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
            if (!commented) print FILENAME ":" FNR ": " $0
        }
        { commented = 0 }
    ' $(find "$pkg" -name '*.go' ! -name '*_test.go'))
    if [ -n "$undocumented" ]; then
        echo "docs gate: undocumented exported identifiers in $pkg:" >&2
        echo "$undocumented" >&2
        exit 1
    fi
done
scripts/gen_cli_docs.sh -check

# Layering gate: internal/repair is the shared maintenance layer under both
# the trainer and the serving engine; it must depend on neither (DESIGN.md
# §11). An import in either direction would be a cycle waiting to happen
# and would let driver-specific policy leak into the shared stages.
repair_deps=$(go list -deps ./internal/repair)
for forbidden in rramft/internal/core rramft/internal/serve; do
    if echo "$repair_deps" | grep -qx "$forbidden"; then
        echo "layering gate: internal/repair must not depend on $forbidden" >&2
        exit 1
    fi
done

# internal/cluster sits on top of serve and repair; the reverse dependency
# would let replica-set policy leak into the single-engine layers.
lower_deps=$(go list -deps ./internal/serve ./internal/repair)
if echo "$lower_deps" | grep -qx "rramft/internal/cluster"; then
    echo "layering gate: internal/serve and internal/repair must not depend on internal/cluster" >&2
    exit 1
fi

go test ./...
go test -race -short ./...

# The benchmark is its own module, so the root `go test ./...` never enters
# it. Its smoke test builds the real rramft-serve and runs every workload's
# correctness checks (conservation, exactly-once ids and, on the wire,
# protocol_replay), so an API change the benchmark depends on fails here.
(cd benchmark && go vet ./... && go test ./...)

# Bench smoke: a short hot-path suite run must produce a structurally
# valid BENCH.json (exactly the suite's ops, finite timings, resolvable
# baseline references). This gates the suite's plumbing, not the numbers —
# the committed baseline is regenerated with the default -bench-time 1s;
# see PERFORMANCE.md. The committed ledger must verify too, so it cannot
# keep a row for an op the suite does not run.
bench_json=$(mktemp)
go run ./cmd/rramft-bench -bench-json "$bench_json" -bench-time 25ms > /dev/null
go run ./cmd/rramft-bench -bench-verify "$bench_json"
rm -f "$bench_json"
go run ./cmd/rramft-bench -bench-verify BENCH.json

# Serving soak under the race detector: 5 s of concurrent clients against a
# live engine with background repair and a mid-run fault burst (the plain
# test run above already covers a ~400ms variant).
RRAMFT_SOAK=5s go test -race -run '^TestServeSoak$' ./internal/serve/

# Cluster chaos soak under the race detector: concurrent clients against a
# 3-replica dispatcher with staggered per-replica fault bursts, background
# maintenance and one forced rebuild mid-run (the plain test run above
# covers a ~500ms variant).
RRAMFT_SOAK=5s go test -race -run '^TestClusterSoak$' ./internal/cluster/

# Chaos-campaign soak under the race detector: a scheduled campaign (abrupt
# replica crash + intermittent fault groups + read-disturb + queue
# saturation + a maintenance stall) fired from the chaos engine's own
# goroutine against a 3-replica dispatcher under concurrent load, asserting
# the conservation invariant holds through all of it (DESIGN.md §15).
RRAMFT_SOAK=5s go test -race -run '^TestChaosSoak$' ./internal/cluster/

# Coverage floor over internal/... — keeps the harness honest: new code
# either comes with tests or consciously lowers this number in review.
# (Measured 81.8% when the floor was set; the margin absorbs small
# refactors, not a trend.)
floor=75
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -coverprofile="$profile" ./internal/... > /dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "coverage: internal/... total ${total}% (floor ${floor}%)"
ok=$(awk -v t="$total" -v f="$floor" 'BEGIN {print (t >= f) ? 1 : 0}')
if [ "$ok" != 1 ]; then
    echo "coverage ${total}% is below the ${floor}% floor" >&2
    exit 1
fi

if [ "${RRAMFT_FUZZ:-}" = 1 ]; then
    echo "fuzz smoke: 10s per target"
    go test ./internal/rram/    -run='^$' -fuzz='^FuzzCrossbarRestore$' -fuzztime=10s
    go test ./internal/mapping/ -run='^$' -fuzz='^FuzzMappingState$'    -fuzztime=10s
    go test ./internal/core/    -run='^$' -fuzz='^FuzzReadCheckpoint$'  -fuzztime=10s
    go test ./internal/detect/  -run='^$' -fuzz='^FuzzMarchInput$'      -fuzztime=10s
    go test ./internal/serve/   -run='^$' -fuzz='^FuzzServeRequest$'    -fuzztime=10s
    go test ./internal/cluster/ -run='^$' -fuzz='^FuzzClusterRoute$'    -fuzztime=10s
    go test ./internal/chaos/   -run='^$' -fuzz='^FuzzChaosSchedule$'   -fuzztime=10s
fi
