#!/bin/sh
# check.sh — the repo's verification gate: static checks, the full test
# suite (race detector on the concurrent packages), and a perf smoke test
# asserting the decision cache keeps the hot launch path at least 5x
# cheaper than re-evaluating the analytical models.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== api surface gate =="
# The exported surface of the decision-facing packages is a contract:
# any drift from the committed snapshot fails here until the snapshot is
# regenerated (make api) and reviewed alongside the change.
go run ./cmd/apidump -check api/exported.txt

echo "== go test =="
go test ./...

echo "== go test -cpu 1,2,4 (transport packages) =="
# Stream credit accounting, the hedge race and the decoder are
# scheduler-sensitive: run them at several GOMAXPROCS so an ordering
# bug fails here instead of intermittently.
go test -count=1 -cpu 1,2,4 ./internal/server/ ./internal/client/ ./internal/wire/

echo "== go test -race (concurrent packages) =="
go test -race ./internal/offload/ ./internal/experiments/ \
	./internal/server/ ./internal/trace/ ./internal/audit/ \
	./internal/client/ ./internal/faultnet/ ./internal/regiongen/ \
	./internal/learn/ ./internal/wire/ ./internal/cluster/

echo "== fuzz smoke (10s per parser) =="
# Short randomized runs on top of the checked-in seed corpora, one
# invocation per target (go test allows a single -fuzz per package run).
go test -run '^$' -fuzz '^FuzzParsePolicy$' -fuzztime 10s ./internal/offload/
go test -run '^$' -fuzz '^FuzzDecideBody$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzDecideBodyV2$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzTraceRead$' -fuzztime 10s ./internal/trace/
go test -run '^$' -fuzz '^FuzzLearnSnapshot$' -fuzztime 10s ./internal/learn/
go test -run '^$' -fuzz '^FuzzWireFrame$' -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz '^FuzzStreamFrame$' -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz '^FuzzGossipFrame$' -fuzztime 10s ./internal/wire/

echo "== perf smoke: cached vs interpreted-model launch =="
# The bar predates the compiled decision programs: a cached launch must
# stay >=5x cheaper than re-evaluating the models the way every launch
# used to (interpreted). The compiled uncached path is benchmarked and
# gated separately via the bench ledger below.
out=$(go test -run='^$' \
	-bench='BenchmarkLaunch(Cached|UncachedInterpreted)$' -benchtime=0.2s .)
echo "$out"
echo "$out" | awk '
	/BenchmarkLaunchCached/              { cached = $3 }
	/BenchmarkLaunchUncachedInterpreted/ { uncached = $3 }
	END {
		if (cached == "" || uncached == "") {
			print "perf smoke: benchmarks did not run"; exit 1
		}
		ratio = uncached / cached
		printf "perf smoke: interpreted-uncached/cached = %.1fx (need >= 5x)\n", ratio
		if (ratio < 5) exit 1
	}'

echo "== bench ledger: parse + regression gate =="
# The committed ledger must parse, and a quick re-run must not regress
# its machine-independent numbers (allocs/op, compiled-vs-interpreted
# ratios) by more than 20%. Raw ns/op is never compared across machines.
if [ ! -f BENCH_decide.json ]; then
	echo "bench ledger: BENCH_decide.json missing (run make bench)"; exit 1
fi
go test -run '^$' \
	-bench 'BenchmarkPredict(Uncached|UncachedInterpreted|Cached)$|BenchmarkDecideCached(Parallel)?$' \
	-benchtime=0.2s -benchmem . \
	| go run ./cmd/benchjson -gate BENCH_decide.json

echo "== serve ledger: parse + regression gate =="
# Same idea for the serving benchmarks: the committed ledger must parse
# and the binary frame format and stream transport must stay
# meaningfully faster than JSON. Short CI runs over a live server are
# noisier than the in-process micro-benchmarks, so the floors are
# relaxed relative to the 2x/3x bars bench.sh enforces when the ledger
# is regenerated.
if [ ! -f BENCH_serve.json ]; then
	echo "serve ledger: BENCH_serve.json missing (run make bench)"; exit 1
fi
go test -run '^$' \
	-bench 'BenchmarkServe(JSON|Binary)(Single|Batch64)$|BenchmarkServeStream(Single|Pipelined64)$|BenchmarkClientDecideStream$' \
	-benchtime=0.2s -benchmem . \
	| go run ./cmd/benchjson -gate BENCH_serve.json -tolerance 0.5 \
		-min-wire-speedup 1.5 -min-stream-speedup 2

echo "== daemon smoke: serve, decide, scrape, drain =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hybridseld" ./cmd/hybridseld
go build -o "$tmp/loadgen" ./cmd/loadgen
addr=127.0.0.1:18927
pprof_addr=127.0.0.1:18928
stream_addr=127.0.0.1:18929
"$tmp/hybridseld" -addr "$addr" -regions gemm,mvt1,2dconv \
	-stream-addr "$stream_addr" \
	-trace "$tmp/decisions.jsonl" -pprof-addr "$pprof_addr" \
	-audit-rate 1 -audit-workers 2 \
	-learn -learn-out "$tmp/learner.json" 2>"$tmp/daemon.log" &
daemon=$!
# Exercise the full service path: wait for /healthz, push a short mixed
# load, assert a conservative throughput floor (CI machines vary; the
# acceptance bar of 10k/s is checked on dedicated hardware), and scrape
# /metrics through loadgen.
if ! "$tmp/loadgen" -addr "http://$addr" -wait 10s -duration 2s \
	-concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape; then
	echo "daemon smoke: loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
# Same daemon, binary frames: loadgen speaks the wire format on
# /v2/decide (slot-form requests, batched), proving content negotiation
# end to end against a real process rather than httptest.
if ! "$tmp/loadgen" -addr "http://$addr" -wire binary -duration 2s \
	-concurrency 4 -batch 16 -kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape=false; then
	echo "daemon smoke: binary-mode loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: binary frames served on /v2/decide"
# Same daemon again over the persistent stream transport: loadgen
# pipelines decide frames over long-lived connections dialed raw at
# -stream-addr, proving the stream listener end to end.
if ! "$tmp/loadgen" -addr "http://$addr" -stream-addr "$stream_addr" \
	-wire stream -duration 2s -concurrency 4 -batch 8 \
	-kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape=false; then
	echo "daemon smoke: stream-mode loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: stream transport served on $stream_addr"
# The shadow auditor must have sampled the served decisions: scrape the
# accuracy gauges off /metrics (retrying briefly — audits run on
# background workers and may land just after the load stops).
audited=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
	audited=$(curl -s "http://$addr/metrics" \
		| awk '/^hybridsel_audit_samples_total/ { print $2 }')
	[ "${audited:-0}" -gt 0 ] && break
	sleep 0.5
done
if ! [ "${audited:-0}" -gt 0 ]; then
	echo "daemon smoke: no audit samples on /metrics; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
metrics=$(curl -s "http://$addr/metrics")
for series in hybridsel_mispredict_total \
	hybridsel_audit_regret_seconds_total hybridsel_correction_factor \
	hybridsel_learner_samples_total hybridsel_learner_verdicts_total \
	hybridsel_learner_region_models hybridsel_learner_confident_models; do
	if ! printf '%s\n' "$metrics" | grep -q "^$series"; then
		echo "daemon smoke: /metrics missing $series"
		kill "$daemon" 2>/dev/null || true
		exit 1
	fi
done
echo "daemon smoke: $audited decisions shadow-audited"
# The residual learner trained from those audits and serves its state.
if ! curl -s "http://$addr/v1/learn" | grep -q '"minSamples"'; then
	echo "daemon smoke: /v1/learn not serving learner state"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: learner state live on /v1/learn"
# The profiling listener is separate from the decision port and live.
if ! curl -sf "http://$pprof_addr/debug/pprof/" >/dev/null; then
	echo "daemon smoke: pprof listener not serving"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
if curl -sf "http://$addr/debug/pprof/" >/dev/null; then
	echo "daemon smoke: pprof handlers leaked onto the decision port"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: pprof isolated on $pprof_addr"
# Chaos smoke: the resilient client drives the same daemon through a
# scripted ~30% fault regime. loadgen exits non-zero unless every call
# completed with a verdict (remote, hedged, or fallback) — the
# acceptance bar for the fault-injection harness.
if ! "$tmp/loadgen" -addr "http://$addr" -client -faults faults30 \
	-duration 3s -concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-scrape=false; then
	echo "chaos smoke: loadgen did not complete 100% under faults; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "chaos smoke: 100% completion under faults30"
# Graceful drain: SIGTERM must flush the trace and exit 0.
kill -TERM "$daemon"
if ! wait "$daemon"; then
	echo "daemon smoke: daemon did not drain cleanly; log:"
	cat "$tmp/daemon.log"
	exit 1
fi
if ! [ -s "$tmp/decisions.jsonl" ]; then
	echo "daemon smoke: no trace recorded"
	exit 1
fi
if ! [ -s "$tmp/learner.json" ]; then
	echo "daemon smoke: no learner snapshot written on drain"
	exit 1
fi
echo "daemon smoke: ok ($(wc -l < "$tmp/decisions.jsonl") decisions traced)"

echo "== cluster smoke: 3-replica ring, mid-run kill, 100% completion =="
# Three real daemons form a gossip ring; loadgen drives the cluster
# client across them while one replica is SIGKILLed mid-run. The bar:
# every call completes with a verdict (the killed replica's keys fail
# over to their ring successor), and the survivors' /v1/cluster must
# report the dead peer.
ca=127.0.0.1:18931; cb=127.0.0.1:18932; cc=127.0.0.1:18933
ga=127.0.0.1:18941; gb=127.0.0.1:18942; gc=127.0.0.1:18943
"$tmp/hybridseld" -addr "$ca" -regions gemm,mvt1,2dconv \
	-node node-a -gossip-addr "$ga" -gossip-interval 100ms \
	-peers "node-b=http://$gb,node-c=http://$gc" 2>"$tmp/node-a.log" &
node_a=$!
"$tmp/hybridseld" -addr "$cb" -regions gemm,mvt1,2dconv \
	-node node-b -gossip-addr "$gb" -gossip-interval 100ms \
	-peers "node-a=http://$ga,node-c=http://$gc" 2>"$tmp/node-b.log" &
node_b=$!
"$tmp/hybridseld" -addr "$cc" -regions gemm,mvt1,2dconv \
	-node node-c -gossip-addr "$gc" -gossip-interval 100ms \
	-peers "node-a=http://$ga,node-b=http://$gb" 2>"$tmp/node-c.log" &
node_c=$!
( sleep 2; kill -9 "$node_c" 2>/dev/null ) &
killer=$!
if ! "$tmp/loadgen" -addr "http://$ca" -wait 10s \
	-cluster "node-a=http://$ca,node-b=http://$cb,node-c=http://$cc" \
	-duration 5s -concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-scrape=false; then
	echo "cluster smoke: loadgen lost verdicts during the kill; logs:"
	cat "$tmp/node-a.log" "$tmp/node-b.log" "$tmp/node-c.log"
	kill "$node_a" "$node_b" "$node_c" 2>/dev/null || true
	exit 1
fi
wait "$killer" 2>/dev/null || true
# The survivors' gossip must have declared the killed replica dead.
dead=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	dead=$(curl -s "http://$ca/v1/cluster" \
		| grep -o '"id":"node-c"[^}]*"health":"dead"' || true)
	[ -n "$dead" ] && break
	sleep 0.5
done
if [ -z "$dead" ]; then
	echo "cluster smoke: node-a never saw node-c dead on /v1/cluster:"
	curl -s "http://$ca/v1/cluster"; echo
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
if ! curl -s "http://$ca/metrics" | grep -q '^hybridsel_cluster_members{health="dead"} 1'; then
	echo "cluster smoke: /metrics not reporting the dead member"
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
kill -TERM "$node_a" "$node_b"
wait "$node_a" "$node_b" || {
	echo "cluster smoke: surviving replicas did not drain cleanly"
	exit 1
}
echo "cluster smoke: 100% completion with node-c killed mid-run"

echo "OK"
