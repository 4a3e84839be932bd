#!/bin/sh
# bench.sh — run the decision hot-path micro-benchmarks and the
# end-to-end serving benchmarks, freezing the results into the benchmark
# ledgers (BENCH_decide.json and BENCH_serve.json). The ledgers'
# machine-independent ratios (compiled-vs-interpreted speedup,
# allocation ratio, binary-vs-JSON and stream-vs-JSON serving
# throughput) are what
# scripts/check.sh gates against; raw ns/op is recorded for the curious
# but never compared across machines.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_decide.json}"
SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"

echo "== decide benchmarks (benchtime $BENCHTIME) =="
go test -run '^$' -bench 'BenchmarkPredict(Uncached|UncachedInterpreted|Cached)$|BenchmarkDecideCached(Parallel)?$' \
	-benchtime "$BENCHTIME" -benchmem . | tee /tmp/bench_decide.$$ || {
	rm -f /tmp/bench_decide.$$; exit 1; }
go run ./cmd/benchjson -out "$OUT" </tmp/bench_decide.$$
rm -f /tmp/bench_decide.$$
echo "== ledger written to $OUT =="
awk '/"summary"/,/^  }/' "$OUT"

echo "== serve benchmarks (benchtime $BENCHTIME) =="
# End-to-end decide serving over a live server: JSON vs the binary
# frame format on /v2/decide (single and 64-item batched) plus the
# persistent stream transport (single in-flight and 64 pipelined), and
# the resilient client's Decide over that stream transport.
# Acceptance floors: binary batched >=2x JSON batched, and stream
# single >=3x JSON single — the headline of killing per-request HTTP
# overhead on the decide path.
go test -run '^$' -bench 'BenchmarkServe(JSON|Binary)(Single|Batch64)$|BenchmarkServeStream(Single|Pipelined64)$|BenchmarkClientDecideStream$' \
	-benchtime "$BENCHTIME" -benchmem . | tee /tmp/bench_serve.$$ || {
	rm -f /tmp/bench_serve.$$; exit 1; }
go run ./cmd/benchjson -out "$SERVE_OUT" -min-wire-speedup 2 -min-stream-speedup 3 </tmp/bench_serve.$$
rm -f /tmp/bench_serve.$$
echo "== ledger written to $SERVE_OUT =="
awk '/"summary"/,/^  }/' "$SERVE_OUT"
