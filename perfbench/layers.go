package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

const (
	// codecSample is how many requests and responses the codec and
	// private-runtime passes replay.
	codecSample = 256
	// offloadSample bounds the keys the private-runtime passes replay:
	// about 170 per region, inside one region's 1,024-entry cache.
	offloadSample = 4096
	// passBudget is each isolated pass's time budget.
	passBudget = 300 * time.Millisecond
	// rawBudget is the client-versus-raw pass's time budget.
	rawBudget = time.Second
	// mergeReps is how many fresh nodes merge the captured gossip message.
	mergeReps = 20
	// simKeys is how many audited keys the simulator pass re-executes.
	simKeys = 8
)

// traced measures the per-layer metrics: one closed-loop window
// alternating traced and untraced seconds, then isolated passes over
// each layer's public functions with the run's own request shapes.
func (rn *runner) traced(ctx context.Context) (result, error) {
	if err := rn.prepare(); err != nil {
		return result{}, err
	}
	r, _, err := rn.setup(ctx)
	if err != nil {
		return result{}, err
	}
	defer r.close()

	cs := newCallers(&rn.s, rn.callers)
	drive(ctx, r, cs, 1, warmup, nil, nil)
	tr := newTracer(rn.callers)
	before, err := r.counters(ctx)
	if err != nil {
		return result{}, err
	}
	ws := drive(ctx, r, cs, rn.seconds, windowLen, tr, func(w int) bool { return w%2 == 0 })
	after, err := r.counters(ctx)
	if err != nil {
		return result{}, err
	}
	var tws, uws []window
	var span time.Duration
	for _, w := range ws {
		span += w.dur
		if w.traced {
			tws = append(tws, w)
		} else {
			uws = append(uws, w)
		}
	}
	all := summarize(ws)
	m := map[string]float64{}
	rn.counterLayers(m, before, after, all, span.Seconds())

	lp := &layerPass{rn: rn, tr: tr, r: r, cs: cs}
	if err := lp.run(ctx, m); err != nil {
		return result{}, err
	}

	decide := sortedCopy(tr.durations(spanDecide))
	m["offload.decide_ns"] = float64(quantile(decide, 0.5))
	if len(uws) > 0 {
		tput := summarize(tws).decisionsPerS
		base := summarize(uws).decisionsPerS
		m["trace.overhead_pct"] = 100 * ratio(base-tput, base)
	}
	// The layers on a call's blocking path, each measured on its own:
	// the client pipeline, and per verdict the codec and the program's
	// decision. What they leave of the untraced p50 (syscalls, scheduling,
	// HTTP handling) is the unexplained share.
	e2e := summarize(uws)
	if len(uws) == 0 {
		e2e = all
	}
	items := ratio(float64(all.decisions), float64(all.calls))
	codec := m["wire.encode_ns"] + m["wire.decode_ns"]
	if rn.w.learning {
		codec = m["server.json_codec_ns"]
	}
	explained := m["client.self_us"]*1e3 + items*(m["offload.decide_ns"]+codec)
	m["trace.unexplained_pct"] = 100 * ratio(e2e.p50us*1e3-explained, e2e.p50us*1e3)
	m["call_p99_us"] = e2e.p99us

	attempted, failed := all.decisions, all.failed
	if lr, ok := r.(*learnRig); ok {
		lr.drainAudits()
		q := rn.eval.run(ctx, lr)
		attempted += q.attempted
		failed += q.failed
		m["regret_pct"], m["mispredict_pct"] = q.regretPct, q.mispredictPct
		if q.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", q.err)
		}
	}
	m["error_pct"] = 100 * ratio(float64(failed), float64(attempted))
	if err := firstError(cs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", err)
	}

	path := filepath.Join(".bench_build", "trace", rn.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	res := result{
		Correct:   failed == 0 && m["client.transport_fallbacks"] == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metricValue{m[def.name], def.unit}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d callers=%d traced (alternate seconds traced)\n",
		rn.w.name, rn.seed, rn.seconds, rn.callers)
	self := sortedCopy(tr.selfTimes(spanCall))
	fmt.Printf("  spans kept in memory and written to %s (%d dropped over the cap); call self-time p50 %d ns\n",
		path, tr.droppedSpans(), quantile(self, 0.5))
	printMetrics(res.Metrics, perLayer)
	return res, nil
}

// counterLayers derives the per-layer metrics the program's own
// counters give over the timed window.
func (rn *runner) counterLayers(m map[string]float64, a, b counters, all e2eSummary, secs float64) {
	reqs := float64(b.requests - a.requests)
	hedges, wins := float64(b.hedges-a.hedges), float64(b.hedgeWins-a.hedgeWins)
	if rn.w.learning {
		// Replica clients never hedge in a cluster; the cluster client
		// hedges across replicas instead.
		reqs = float64(b.cluster.Requests - a.cluster.Requests)
		hedges = float64(b.cluster.CrossHedges - a.cluster.CrossHedges)
		wins = float64(b.cluster.CrossHedgeWins - a.cluster.CrossHedgeWins)
		m["cluster.failovers_per_1k"] = 1e3 * ratio(float64(b.cluster.Failovers-a.cluster.Failovers), reqs)
		m["cluster.cross_hedges_per_1k"] = 1e3 * ratio(hedges, reqs)
		m["cluster.gossip_exchanges_per_s"] = ratio(float64(b.exchanges-a.exchanges), secs)
		m["cluster.owner_pct"] = 100 * ratio(float64(all.owned), float64(all.decisions))
		samples, dropped := float64(b.auditSamples-a.auditSamples), float64(b.auditDropped-a.auditDropped)
		m["audit.samples_per_s"] = ratio(samples, secs)
		m["audit.dropped_pct"] = 100 * ratio(dropped, samples+dropped)
		learned, analytical := float64(b.learned-a.learned), float64(b.analytical-a.analytical)
		m["learn.learned_pct"] = 100 * ratio(learned, learned+analytical)
		m["learn.confident_models"] = float64(b.confident) / float64(len(memberIDs))
	}
	m["client.hedges_per_1k"] = 1e3 * ratio(hedges, reqs)
	m["client.hedge_win_pct"] = 100 * ratio(wins, hedges)
	m["client.retries_per_1k"] = 1e3 * ratio(float64(b.retries-a.retries), reqs)
	m["client.coalesced_pct"] = 100 * ratio(float64(b.coalesced-a.coalesced), reqs)
	m["client.transport_fallbacks"] = float64(b.fallbacks - a.fallbacks)
	m["server.sheds"] = float64(b.sheds - a.sheds)
	m["server.frames_per_write"] = ratio(promDelta(a, b, "hybridsel_stream_requests_total"),
		promDelta(a, b, "hybridsel_stream_writes_total"))
	decideHTTP := 0.0
	for series := range b.prom {
		if strings.HasPrefix(series, `hybridseld_http_requests_total{path="/v2/decide"`) {
			decideHTTP += promDelta(a, b, series)
		}
	}
	// Without HTTP decides in the window (stream_hot), the histogram's
	// whole life stands in: health checks and scrapes.
	from := a
	if decideHTTP == 0 {
		from = counters{}
	}
	m["server.http_p50_us"] = 1e6 * histQuantile(from, b, "hybridseld_http_request_seconds", 0.5)
	hits, misses := float64(b.cacheHits-a.cacheHits), float64(b.cacheMisses-a.cacheMisses)
	m["offload.cache_hit_pct"] = 100 * ratio(hits, hits+misses)
	m["offload.evictions_per_1k"] = 1e3 * ratio(float64(b.evictions-a.evictions), hits+misses)
	m["offload.compiled_pct"] = 100 * ratio(float64(b.compiled-a.compiled), float64(b.predictions-a.predictions))
	// A hot window evaluates no model; the evaluations of set-up and
	// warm-up stand in.
	m["offload.model_eval_p50_us"] = 1e6 * histQuantile(a, b, "hybridsel_model_eval_seconds", 0.5)
	if m["offload.model_eval_p50_us"] == 0 {
		m["offload.model_eval_p50_us"] = 1e6 * histQuantile(counters{}, b, "hybridsel_model_eval_seconds", 0.5)
	}
}

// layerPass runs the isolated passes of a traced run.
type layerPass struct {
	rn *runner
	tr *tracer
	r  rig
	cs []*caller // the closed-loop callers, after the timed window
}

func (lp *layerPass) run(ctx context.Context, m map[string]float64) error {
	if err := lp.clientVersusRaw(ctx, m); err != nil {
		return err
	}
	lp.codecs(m)
	if err := lp.offload(m); err != nil {
		return err
	}
	return lp.layerFunctions(m)
}

// clientVersusRaw alternates client calls with bare-transport calls of
// the same shape on one caller, swapping which goes first each round:
// client.self_us is the difference of their p50s, server.transport_us
// the raw p50 less the p50 of the program-reported decision time.
func (lp *layerPass) clientVersusRaw(ctx context.Context, m map[string]float64) error {
	c := newCaller(0, &lp.rn.s, len(lp.rn.s.Seq)/2, len(lp.rn.s.Seq))
	var cl, raw, dn []int64
	b := lp.tr.passBuf()
	for i, start := 0, time.Now(); time.Since(start) < rawBudget; i++ {
		for j := 0; j < 2; j++ {
			t0 := time.Now()
			if (i+j)%2 == 0 {
				out := lp.r.call(ctx, c)
				el := time.Since(t0)
				if out.failed > 0 {
					return fmt.Errorf("client pass: %w", c.err)
				}
				cl = append(cl, int64(el))
				lp.tr.call(b, spanClientCall, t0, el, out.dn)
				continue
			}
			out, err := lp.r.raw(ctx, c)
			el := time.Since(t0)
			if err != nil {
				return fmt.Errorf("raw pass: %w", err)
			}
			raw = append(raw, int64(el))
			var sum int64
			for _, d := range out.dn {
				sum += d
			}
			dn = append(dn, sum)
			lp.tr.call(b, spanRawCall, t0, el, out.dn)
		}
	}
	rawP50 := quantile(sortedCopy(raw), 0.5)
	m["client.self_us"] = float64(quantile(sortedCopy(cl), 0.5)-rawP50) / 1e3
	m["server.transport_us"] = float64(rawP50-quantile(sortedCopy(dn), 0.5)) / 1e3
	return nil
}

// codecs times the wire and JSON codecs on the run's own request and
// response shapes, per decision.
func (lp *layerPass) codecs(m map[string]float64) {
	var reqs []*wire.Request
	var jreqs []server.DecideRequest
	for i := 0; i < codecSample; i++ {
		k := lp.rn.s.Keys[lp.rn.s.Seq[i]]
		reqs = append(reqs, slotRequest(k))
		jreqs = append(jreqs, server.DecideRequest{Region: k.Region, Bindings: bindings(k.N)})
	}
	var jresps []server.DecideResponseV2
	switch r := lp.r.(type) {
	case *hotRig:
		for _, resp := range r.seen {
			jresps = append(jresps, wireVerdict(resp))
		}
		lp.streamCodec(m, reqs, r.seen)
	case *coldRig:
		for i := range r.seen.Resps {
			jresps = append(jresps, wireVerdict(&r.seen.Resps[i]))
		}
		lp.batchCodec(m, reqs[:coldBatch], r.seen)
	case *learnRig:
		// The cluster speaks JSON; its stream codec cost is measured on
		// its own shapes all the same, to show it does not move.
		jresps = r.seen
		var wresps []*wire.Response
		for i := range r.seen {
			wresps = append(wresps, wireResponse(&r.seen[i]))
		}
		lp.streamCodec(m, reqs, wresps)
	}
	var rq server.DecideRequest
	var rs server.DecideResponseV2
	m["server.json_codec_ns"] = lp.tr.perOp("server.json_codec", passBudget, 64, func(i int) {
		b, _ := json.Marshal(&jreqs[i%len(jreqs)])
		_ = json.Unmarshal(b, &rq)
		b, _ = json.Marshal(&jresps[i%len(jresps)])
		_ = json.Unmarshal(b, &rs)
	})
}

// streamCodec: one stream request frame and one stream response frame
// per decision.
func (lp *layerPass) streamCodec(m map[string]float64, reqs []*wire.Request, resps []*wire.Response) {
	var a, b []byte
	m["wire.encode_ns"] = lp.tr.perOp("wire.encode", passBudget, 256, func(i int) {
		a = wire.AppendStreamRequest(a[:0], uint64(i), reqs[i%len(reqs)])
		b = wire.AppendStreamResponse(b[:0], uint64(i), resps[i%len(resps)])
	})
	var data []byte
	for i := range reqs {
		data = wire.AppendStreamRequest(data, uint64(i), reqs[i])
		data = wire.AppendStreamResponse(data, uint64(i), resps[i%len(resps)])
	}
	m["wire.bytes_per_decision"] = float64(len(data)) / float64(len(reqs))
	frames := 2 * len(reqs)
	m["wire.decode_ns"] = lp.tr.perOp("wire.decode", passBudget, 1, func(int) {
		sr := wire.NewStreamReader(bytes.NewReader(data))
		for j := 0; j < frames; j++ {
			if _, err := sr.Next(); err != nil {
				panic(fmt.Sprintf("decoding frames this pass encoded: %v", err))
			}
		}
	}) / float64(len(reqs))
}

// batchCodec: one batch request frame and one batch response frame per
// coldBatch decisions.
func (lp *layerPass) batchCodec(m map[string]float64, reqs []*wire.Request, resp *wire.Frame) {
	batch := make([]wire.Request, len(reqs))
	for i, r := range reqs {
		batch[i] = *r
	}
	var a, b []byte
	m["wire.encode_ns"] = lp.tr.perOp("wire.encode", passBudget, 16, func(int) {
		a = wire.AppendBatchRequest(a[:0], batch)
		b = wire.AppendBatchResponse(b[:0], resp.Coalesced, resp.Resps)
	}) / float64(len(batch))
	m["wire.bytes_per_decision"] = float64(len(a)+len(b)) / float64(len(batch))
	m["wire.decode_ns"] = lp.tr.perOp("wire.decode", passBudget, 16, func(int) {
		for _, data := range [][]byte{a, b} {
			if _, _, err := wire.DecodeFrame(data); err != nil {
				panic(fmt.Sprintf("decoding a frame this pass encoded: %v", err))
			}
		}
	}) / float64(len(batch))
}

// sampleKeys is the run's first distinct keys in stream order.
func (lp *layerPass) sampleKeys() []key {
	keys := lp.rn.s.Keys
	return keys[:min(len(keys), offloadSample)]
}

// offload times Runtime.Decide on private runtimes replaying the run's
// keys: with a warm decision cache (hit) and with caching off (miss).
// It also times the key hash the cache and the slot form use.
func (lp *layerPass) offload(m map[string]float64) error {
	spec := lp.rn.w.spec
	keys := lp.sampleKeys()
	bs := make([]symbolic.Bindings, len(keys))
	for i, k := range keys {
		bs[i] = symbolic.Bindings{"n": k.N}
	}
	for _, pass := range []struct {
		metric, span string
		cache        int
	}{{"offload.decide_hit_ns", "offload.decide_hit", 0}, {"offload.decide_miss_ns", "offload.decide_miss", -1}} {
		rt, err := newRuntime(spec, pass.cache, nil)
		if err != nil {
			return err
		}
		for i, k := range keys {
			if _, err := rt.Decide(k.Region, bs[i]); err != nil {
				return fmt.Errorf("%s: %w", pass.span, err)
			}
		}
		m[pass.metric] = lp.tr.perOp(pass.span, passBudget, 64, func(i int) {
			_, _ = rt.Decide(keys[i%len(keys)].Region, bs[i%len(bs)])
		})
	}
	m["attrdb.key_hash_ns"] = lp.tr.perOp("attrdb.key_hash", passBudget, 256, func(i int) {
		_ = attrdb.BindingsHash(bs[i%len(bs)])
	})
	return nil
}

// layerFunctions times the audit, simulator, learner and cluster
// layers' public functions on private instances fed the run's keys. On
// cluster_learn they start from the live cluster's state: the audited
// shapes, replica 0's trained learner, a gossip message captured off the
// cluster. The other mixes do not run through these layers; there the
// same functions are timed on fresh state, a cost those mixes' end-to-end
// metrics must not see.
func (lp *layerPass) layerFunctions(m map[string]float64) error {
	lr, _ := lp.r.(*learnRig)
	keys := lp.sampleKeys()
	// Private runtimes simulate like the cluster replicas on every mix,
	// so an audit costs about a millisecond.
	spec := lp.rn.w.spec
	spec.sampledSim = true

	// audit.Offer on a private auditor configured like a replica's.
	prt, err := newRuntime(spec, 0, nil)
	if err != nil {
		return err
	}
	ds := make([]offload.Decision, len(keys))
	for i, k := range keys {
		out, err := prt.Decide(k.Region, symbolic.Bindings{"n": k.N})
		if err != nil {
			return err
		}
		ds[i] = out.Decision
	}
	aud := audit.New(audit.Config{Runtime: prt, Rate: auditRate, Workers: 1, Calibrator: audit.NewCalibrator(0)})
	m["audit.offer_ns"] = lp.tr.perOp("audit.offer", passBudget, 256, func(i int) { aud.Offer(ds[i%len(ds)]) })
	aud.Close()

	// Ground truth for a few shapes on a runtime whose execution memo is
	// empty: audited shapes on cluster_learn, the run's keys elsewhere.
	shapes := keys
	if lr != nil {
		shapes = lp.auditedShapes(lr, m)
	}
	srt, err := newRuntime(spec, 0, nil)
	if err != nil {
		return err
	}
	var execs []float64
	var obs []observation
	for i := 0; i < len(shapes) && i < simKeys; i++ {
		k := shapes[i*len(shapes)/simKeys]
		b := symbolic.Bindings{"n": k.N}
		o := observation{region: k.Region}
		if o.f, err = prt.Features(k.Region, b); err != nil {
			return err
		}
		cands, err := prt.PredictTargets(k.Region, b)
		if err != nil {
			return err
		}
		for _, c := range cands {
			t0 := time.Now()
			actual, err := srt.ExecuteTarget(k.Region, c.Target, b)
			if err != nil {
				return err
			}
			el := time.Since(t0)
			lp.tr.pass("sim.execute", t0, el)
			execs = append(execs, float64(el.Nanoseconds())/1e6)
			o.ms = append(o.ms, audit.TargetMeasurement{Target: c.Target, PredSeconds: c.PredSeconds,
				ActualSeconds: actual, LogErr: math.Log(actual / c.PredSeconds)})
		}
		obs = append(obs, o)
	}
	m["sim.execute_ms"] = median(execs)

	// The learner: replica 0's trained state on cluster_learn, fresh
	// elsewhere.
	newLearner := func() (*learn.Learner, error) {
		l := learn.New(learn.Config{Fallback: audit.NewCalibrator(0)})
		if lr == nil {
			return l, nil
		}
		return l, l.Restore(lr.reps[0].lrn.Snapshot())
	}
	lrn, err := newLearner()
	if err != nil {
		return err
	}
	n := min(len(keys), codecSample)
	fs := make([]offload.Features, n)
	cands := make([][]offload.Candidate, n)
	for i := 0; i < n; i++ {
		b := symbolic.Bindings{"n": keys[i].N}
		if fs[i], err = prt.Features(keys[i].Region, b); err != nil {
			return err
		}
		if cands[i], err = prt.PredictTargets(keys[i].Region, b); err != nil {
			return err
		}
	}
	m["learn.correct_ns"] = lp.tr.perOp("learn.correct", passBudget, 64, func(i int) {
		lrn.CorrectFeatures(keys[i%n].Region, fs[i%n], cands[i%n])
	})
	if lrn, err = newLearner(); err != nil {
		return err
	}
	m["learn.observe_us"] = lp.tr.perOp("learn.observe", passBudget, len(obs), func(i int) {
		o := &obs[i%len(obs)]
		lrn.ObserveVerdict(o.region, o.f, o.ms)
	}) / 1e3

	// Routing, and merging a gossip message into fresh nodes: on
	// cluster_learn the live cluster's client and a message captured off
	// it, elsewhere a client over the same member set and a fresh node's
	// view.
	members := make([]cluster.Member, len(memberIDs))
	for i, id := range memberIDs {
		members[i] = cluster.Member{ID: id, Addr: "127.0.0.1:1", Gossip: "http://127.0.0.1:1"}
	}
	var cc *client.ClusterClient
	var msg *wire.GossipMsg
	if lr != nil {
		cc, msg, members = lr.cc, lr.reps[0].tr.last.Load(), lr.members
		if msg == nil {
			return fmt.Errorf("no gossip message captured")
		}
	} else {
		cms := make([]client.ClusterMember, len(members))
		for i, mb := range members {
			cms[i] = client.ClusterMember{ID: mb.ID, BaseURL: "http://" + mb.Addr}
		}
		if cc, err = client.NewCluster(client.ClusterConfig{Members: cms}); err != nil {
			return err
		}
		defer cc.Close()
		ct := &captureTransport{}
		node, err := stateNode(members, ct)
		if err != nil {
			return err
		}
		node.Tick(context.Background())
		if msg = ct.view; msg == nil {
			return fmt.Errorf("no gossip view captured")
		}
	}
	reqs := make([]server.DecideRequest, n)
	for i := range reqs {
		reqs[i] = server.DecideRequest{Region: keys[i].Region, Bindings: bindings(keys[i].N)}
	}
	m["cluster.route_ns"] = lp.tr.perOp("cluster.route", passBudget, 256, func(i int) { cc.Route(reqs[i%n]) })
	var merges []float64
	for i := 0; i < mergeReps; i++ {
		node, err := stateNode(members, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		node.Merge(msg)
		el := time.Since(t0)
		lp.tr.pass("cluster.merge", t0, el)
		merges = append(merges, float64(el.Nanoseconds())/1e3)
	}
	m["cluster.merge_us"] = median(merges)
	return nil
}

// observation is one shape's audit ground truth, as the learner takes it.
type observation struct {
	region string
	f      offload.Features
	ms     []audit.TargetMeasurement
}

// auditedShapes reports the share of the keys the callers requested that
// were audited during the run, and returns the audited keys in order.
func (lp *layerPass) auditedShapes(lr *learnRig, m map[string]float64) []key {
	audited := lr.auditedKeys()
	seq := lp.rn.s.Seq
	requested := map[int32]bool{}
	for _, c := range lp.cs {
		for j := 0; j < min(c.taken, c.end-c.start); j++ {
			requested[seq[c.start+j]] = true
		}
	}
	hit := 0
	for k := range requested {
		if audited[lp.rn.s.Keys[k]] {
			hit++
		}
	}
	m["audit.audited_key_pct"] = 100 * ratio(float64(hit), float64(len(requested)))
	shapes := make([]key, 0, len(audited))
	for k := range audited {
		shapes = append(shapes, k)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].Region != shapes[j].Region {
			return shapes[i].Region < shapes[j].Region
		}
		return shapes[i].N < shapes[j].N
	})
	return shapes
}

// stateNode is member 0 of the member set with fresh calibration and
// learner gossip sources, as a replica registers them.
func stateNode(members []cluster.Member, tr cluster.Transport) (*cluster.Node, error) {
	node, err := cluster.New(cluster.Config{Self: members[0], Peers: members[1:], Transport: tr, Logger: discardLogger()})
	if err != nil {
		return nil, err
	}
	cal := audit.NewCalibrator(0)
	l := learn.New(learn.Config{Fallback: cal})
	node.Register(cluster.NewVersionedSource("calibration", cal.SnapshotState, cal.MergeState).Source())
	node.Register(cluster.NewVersionedSource("learner", l.EncodeState, func(data []byte) (bool, error) {
		s, err := learn.DecodeState(data)
		if err != nil {
			return false, err
		}
		return l.Merge(s)
	}).Source())
	return node, nil
}

// captureTransport keeps the view a node sends instead of sending it.
type captureTransport struct{ view *wire.GossipMsg }

func (t *captureTransport) Exchange(_ context.Context, _ string, view *wire.GossipMsg) (*wire.GossipMsg, error) {
	t.view = view
	return nil, errors.New("captured, not sent")
}
