package main

// metricDef names one reported metric. BENCHMARK.json declares the same
// names and units (TestLedgerMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the service sees, reported by an untraced
// run. Failed and wrong verdicts are not a metric of their own here:
// they are the result line's "failed" count and fail the run, and their
// share is printed as error_pct and reported by the traced run. The
// same holds for call_p99_us: on a shared 2-vCPU virtual machine every
// tail quantile of stream_hot follows the neighbours' load, and in ten
// runs of the same code its p99 spread 23% of its median (p90 and p95
// about as much), too close to a bound of at most 25% to gate on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"cpu_us_per_decision", "us"},
	{"heap_mb", "MiB"},
}

// perLayer is reported by a traced run. A layer a workload does not run
// through reads 0 on that workload.
var perLayer = []metricDef{
	{"client.self_us", "us"},
	{"client.hedges_per_1k", "per_1k"},
	{"client.hedge_win_pct", "%"},
	{"client.retries_per_1k", "per_1k"},
	{"client.coalesced_pct", "%"},
	{"client.transport_fallbacks", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_decision", "B"},
	{"server.transport_us", "us"},
	{"server.frames_per_write", "count"},
	{"server.http_p50_us", "us"},
	{"server.json_codec_ns", "ns"},
	{"server.sheds", "count"},
	{"offload.decide_ns", "ns"},
	{"offload.decide_hit_ns", "ns"},
	{"offload.decide_miss_ns", "ns"},
	{"offload.cache_hit_pct", "%"},
	{"offload.evictions_per_1k", "per_1k"},
	{"offload.compiled_pct", "%"},
	{"offload.model_eval_p50_us", "us"},
	{"attrdb.key_hash_ns", "ns"},
	{"audit.samples_per_s", "1/s"},
	{"audit.dropped_pct", "%"},
	{"audit.offer_ns", "ns"},
	{"audit.audited_key_pct", "%"},
	{"sim.execute_ms", "ms"},
	{"learn.correct_ns", "ns"},
	{"learn.observe_us", "us"},
	{"learn.learned_pct", "%"},
	{"learn.confident_models", "count"},
	{"cluster.route_ns", "ns"},
	{"cluster.merge_us", "us"},
	{"cluster.gossip_exchanges_per_s", "1/s"},
	{"cluster.failovers_per_1k", "per_1k"},
	{"cluster.cross_hedges_per_1k", "per_1k"},
	{"cluster.owner_pct", "%"},
	{"trace.unexplained_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"call_p99_us", "us"},
	{"error_pct", "%"},
	{"regret_pct", "%"},
	{"mispredict_pct", "%"},
}

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
