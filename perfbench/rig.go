package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// hostThreads is hybridseld's default -threads.
const hostThreads = 160

// auditRate is the cluster replicas' -audit-rate. At 10% one replica's
// audit worker simulates about a tenth of its decisions, at ~1 ms each,
// and keeps up: audits stay a steady share of the work instead of a
// saturated queue that drops most samples.
const auditRate = 0.1

// gossipInterval is hybridseld's default -gossip-interval.
const gossipInterval = 500 * time.Millisecond

// runtimeSpec selects a service's registry and simulator fidelity.
type runtimeSpec struct {
	synthetic bool // the 4-target synthetic registry instead of the classic pair
	// sampledSim caps the ground-truth simulators at the chaos suite's
	// sampling (8 CPU items, 2 warps), so one simulated target costs
	// about half a millisecond at any size.
	sampledSim bool
}

func newRuntime(spec runtimeSpec, cacheSize int, cal offload.Calibrator) (*offload.Runtime, error) {
	plat := machine.PlatformP9V100()
	cfg := offload.Config{
		Platform:          plat,
		Threads:           hostThreads,
		Policy:            offload.ModelGuided,
		Targets:           offload.ClassicPair(plat, hostThreads),
		DecisionCacheSize: cacheSize,
		Calibrator:        cal,
	}
	if spec.synthetic {
		cfg.Targets = offload.SyntheticTargets(plat, hostThreads)
	}
	if spec.sampledSim {
		cfg.CPUSim = sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32}
		cfg.GPUSim = sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1}
	}
	rt := offload.NewRuntime(cfg)
	for _, k := range polybench.Suite() {
		if _, err := rt.Register(k.IR); err != nil {
			return nil, fmt.Errorf("register %s: %w", k.Name, err)
		}
	}
	return rt, nil
}

// callOut is what one closed-loop call produced.
type callOut struct {
	decisions int
	failed    int
	owned     int     // verdicts served by the key's ring owner (cluster)
	dn        []int64 // program-reported DecisionNanos, one per verdict
}

// caller is one closed-loop launch site: it walks its own segment of
// the request stream cyclically and keeps its reusable request buffers.
// Segments keep callers from ever requesting keys another caller has
// just requested, whatever their relative speed: a cold mix stays cold.
type caller struct {
	id         int
	s          *stream
	start, end int // the segment, stream positions [start, end)
	pos        int // next stream position
	taken      int // requests taken from the stream
	batch      []server.DecideRequest
	dn         []int64 // reused callOut.dn backing array
	err        error   // first failure, for the report
}

// newCaller places a caller at the start of segment [start, end).
func newCaller(id int, s *stream, start, end int) *caller {
	return &caller{id: id, s: s, start: start, end: end, pos: start}
}

func (c *caller) next() int32 {
	k := c.s.Seq[c.pos]
	c.taken++
	c.pos++
	if c.pos == c.end {
		c.pos = c.start
	}
	return k
}

func (c *caller) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// rig is one workload's system under test, driven through its public
// client surface.
type rig interface {
	// call issues one call through the client and checks every verdict.
	call(ctx context.Context, c *caller) callOut
	// raw issues one call on the bare transport with the same request
	// shape, bypassing the client pipeline.
	raw(ctx context.Context, c *caller) (callOut, error)
	// counters snapshots the program's own counters.
	counters(ctx context.Context) (counters, error)
	close()
}

// daemon is one served runtime: HTTP on one listener and, optionally,
// the raw stream transport on another.
type daemon struct {
	rt         *offload.Runtime
	srv        *server.Server
	url        string
	streamAddr string
	wg         sync.WaitGroup
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startDaemon serves cfg on loopback listeners.
func startDaemon(cfg server.Config, hl net.Listener, stream bool) (*daemon, error) {
	cfg.Logger = discardLogger()
	srv, err := server.New(cfg)
	if err != nil {
		hl.Close()
		return nil, err
	}
	d := &daemon{rt: cfg.Runtime, srv: srv, url: "http://" + hl.Addr().String()}
	if stream {
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hl.Close()
			return nil, err
		}
		d.streamAddr = sl.Addr().String()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = srv.ServeStream(sl)
		}()
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = srv.Serve(hl)
	}()
	// Shutdown closes only an HTTP server that Serve has already set up:
	// one that runs first leaves a later Serve accepting forever. An
	// answered health check proves Serve is up.
	if err := waitHealthy(d.url); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls GET /healthz until the daemon answers 200.
func waitHealthy(baseURL string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", baseURL, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	d.wg.Wait()
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// regionParams is the client's RegionParams hook: every Polybench region
// takes the single size parameter n, so requests ride the slot form.
func regionParams(string) []string { return []string{"n"} }

func bindings(n int64) map[string]int64 { return map[string]int64{"n": n} }

// ------------------------------------------------------------ stream_hot --

type hotRig struct {
	d       *daemon
	cl      *client.Client
	reqs    []server.DecideRequest // one shared read-only request per key
	exp     *expectations
	keys    []key
	rawConn *client.StreamConn // the raw pass's bare connection
	// seen keeps the raw pass's first responses as the wire codec
	// pass's response shapes.
	seen []*wire.Response
}

func setupHot(rn *runner) (*hotRig, error) {
	rt, err := newRuntime(rn.w.spec, 0, nil)
	if err != nil {
		return nil, err
	}
	hl, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(server.Config{Runtime: rt}, hl, true)
	if err != nil {
		return nil, err
	}
	cl, err := client.New(client.Config{
		BaseURL:      d.url,
		Stream:       true,
		StreamAddr:   d.streamAddr,
		StreamConns:  rn.callers,
		RegionParams: regionParams,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	h := &hotRig{d: d, cl: cl, exp: rn.exp, keys: rn.s.Keys, reqs: make([]server.DecideRequest, len(rn.s.Keys))}
	for i, k := range rn.s.Keys {
		h.reqs[i] = server.DecideRequest{Region: k.Region, Bindings: bindings(k.N)}
	}
	return h, nil
}

func (h *hotRig) call(ctx context.Context, c *caller) callOut {
	k := c.next()
	v, err := h.cl.Decide(ctx, h.reqs[k])
	return verdictOut(c, h.exp, int(k), v, err, client.TransportStream)
}

// raw decides one key on a bare StreamConn of its own. Only the
// traced run's single-caller raw pass calls it.
func (h *hotRig) raw(ctx context.Context, c *caller) (callOut, error) {
	if h.rawConn == nil {
		sc, err := client.DialStream(client.StreamDialConfig{Addr: h.d.streamAddr})
		if err != nil {
			return callOut{}, err
		}
		h.rawConn = sc
	}
	k := c.next()
	resp, err := h.rawConn.Decide(ctx, slotRequest(h.keys[k]))
	if err != nil {
		return callOut{}, err
	}
	v := wireVerdict(resp)
	if err := h.exp.check(int(k), &v); err != nil {
		return callOut{}, fmt.Errorf("raw stream verdict: %w", err)
	}
	if len(h.seen) < codecSample {
		h.seen = append(h.seen, resp)
	}
	c.dn = append(c.dn[:0], resp.DecisionNanos)
	return callOut{decisions: 1, dn: c.dn}, nil
}

func (h *hotRig) counters(ctx context.Context) (counters, error) {
	var cs counters
	cs.addClient(h.cl.Metrics())
	cs.addRuntime(h.d.rt.Metrics())
	return cs, cs.scrape(ctx, h.d.url)
}

func (h *hotRig) close() {
	if h.rawConn != nil {
		h.rawConn.Close()
	}
	h.cl.Close()
	h.d.close()
}

// slotRequest is a key in the wire slot form, as the client sends it.
func slotRequest(k key) *wire.Request {
	return &wire.Request{
		Region:   k.Region,
		SlotForm: true,
		KeyHash:  keyHash(k.N),
		Values:   []int64{k.N},
	}
}

// verdictOut checks a single-verdict call.
func verdictOut(c *caller, exp *expectations, k int, v *client.Verdict, err error, transport string) callOut {
	out := callOut{decisions: 1}
	switch {
	case err != nil:
		c.fail(err)
		out.failed = 1
		return out
	case v.Transport != transport:
		c.fail(fmt.Errorf("verdict served over %s, want %s", v.Transport, transport))
		out.failed = 1
	default:
		if err := exp.check(k, &v.Response); err != nil {
			c.fail(err)
			out.failed = 1
		}
	}
	c.dn = append(c.dn[:0], v.Response.DecisionNanos)
	out.dn = c.dn
	return out
}

// ------------------------------------------------------------ batch_cold --

// coldBatch is the DecideBatch size.
const coldBatch = 64

type coldRig struct {
	d    *daemon
	cl   *client.Client
	exp  *expectations
	keys []key
	raw1 *http.Client
	seen *wire.Frame // the raw pass's last batch response
}

func setupCold(rn *runner) (*coldRig, error) {
	rt, err := newRuntime(rn.w.spec, 0, nil)
	if err != nil {
		return nil, err
	}
	hl, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(server.Config{Runtime: rt}, hl, false)
	if err != nil {
		return nil, err
	}
	cl, err := client.New(client.Config{BaseURL: d.url, Binary: true, RegionParams: regionParams})
	if err != nil {
		d.close()
		return nil, err
	}
	return &coldRig{d: d, cl: cl, exp: rn.exp, keys: rn.s.Keys,
		raw1: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rn.callers}}}, nil
}

// fill loads the caller's next coldBatch keys into its reusable
// requests: the binding maps are rewritten in place, never reallocated.
func (r *coldRig) fill(c *caller, ks []int32) {
	if c.batch == nil {
		c.batch = make([]server.DecideRequest, coldBatch)
		for i := range c.batch {
			c.batch[i].Bindings = bindings(0)
		}
	}
	for i := range ks {
		ks[i] = c.next()
		k := r.keys[ks[i]]
		c.batch[i].Region = k.Region
		c.batch[i].Bindings["n"] = k.N
	}
}

func (r *coldRig) call(ctx context.Context, c *caller) callOut {
	var ks [coldBatch]int32
	r.fill(c, ks[:])
	vs, err := r.cl.DecideBatch(ctx, c.batch)
	out := callOut{decisions: coldBatch}
	if err != nil {
		c.fail(err)
		out.failed = coldBatch
		return out
	}
	c.dn = c.dn[:0]
	for i := range vs {
		switch {
		case vs[i].Transport != client.TransportHTTPBinary:
			c.fail(fmt.Errorf("verdict served over %s, want %s", vs[i].Transport, client.TransportHTTPBinary))
			out.failed++
		default:
			if err := r.exp.check(int(ks[i]), &vs[i].Response); err != nil {
				c.fail(err)
				out.failed++
			}
		}
		c.dn = append(c.dn, vs[i].Response.DecisionNanos)
	}
	out.dn = c.dn
	return out
}

// raw posts one binary batch frame to /v2/decide.
func (r *coldRig) raw(ctx context.Context, c *caller) (callOut, error) {
	var ks [coldBatch]int32
	reqs := make([]wire.Request, coldBatch)
	for i := range ks {
		ks[i] = c.next()
		reqs[i] = *slotRequest(r.keys[ks[i]])
	}
	f, err := postFrame(ctx, r.raw1, r.d.url, wire.AppendBatchRequest(nil, reqs))
	if err != nil {
		return callOut{}, err
	}
	if f.Type != wire.TypeBatchResponse || len(f.Resps) != coldBatch {
		return callOut{}, fmt.Errorf("raw batch: frame type %d with %d responses", f.Type, len(f.Resps))
	}
	c.dn = c.dn[:0]
	for i := range f.Resps {
		v := wireVerdict(&f.Resps[i])
		if err := r.exp.check(int(ks[i]), &v); err != nil {
			return callOut{}, fmt.Errorf("raw batch verdict: %w", err)
		}
		c.dn = append(c.dn, f.Resps[i].DecisionNanos)
	}
	r.seen = f
	return callOut{decisions: coldBatch, dn: c.dn}, nil
}

func (r *coldRig) counters(ctx context.Context) (counters, error) {
	var cs counters
	cs.addClient(r.cl.Metrics())
	cs.addRuntime(r.d.rt.Metrics())
	return cs, cs.scrape(ctx, r.d.url)
}

func (r *coldRig) close() {
	r.raw1.CloseIdleConnections()
	r.cl.Close()
	r.d.close()
}

// --------------------------------------------------------- cluster_learn --

// replica is one cluster member with its audit and learning loop.
type replica struct {
	id     string
	d      *daemon
	aud    *audit.Auditor
	lrn    *learn.Learner
	node   *cluster.Node
	gossip *http.Server
	gwg    sync.WaitGroup
	stop   func()
	tr     *recordingTransport
}

// recordingTransport is the gossip transport with the last received
// message kept for the merge pass.
type recordingTransport struct {
	cluster.HTTPTransport
	last atomic.Pointer[wire.GossipMsg]
}

func (t *recordingTransport) Exchange(ctx context.Context, addr string, view *wire.GossipMsg) (*wire.GossipMsg, error) {
	msg, err := t.HTTPTransport.Exchange(ctx, addr, view)
	if err == nil {
		t.last.Store(msg)
	}
	return msg, err
}

type learnRig struct {
	members []cluster.Member
	seen    []server.DecideResponseV2 // raw pass responses, for the JSON codec pass
	reps    []*replica
	cc      *client.ClusterClient
	exp     *expectations
	keys    []key
	owner   []uint8 // per key: index of its ring owner in memberIDs and reps
	raw1    *http.Client
	mu      sync.Mutex
	audits  map[key]bool // keys audited so far
}

var memberIDs = []string{"node-a", "node-b", "node-c"}

func setupLearn(rn *runner) (_ *learnRig, err error) {
	lr := &learnRig{exp: rn.exp, keys: rn.s.Keys, owner: rn.owner, audits: map[key]bool{},
		raw1: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rn.callers}}}
	hls := make([]net.Listener, len(memberIDs))
	gls := make([]net.Listener, len(memberIDs))
	defer func() {
		if err != nil {
			lr.close()
			// Listeners a replica did not take over; closing twice is
			// harmless.
			for i := range hls {
				for _, l := range []net.Listener{hls[i], gls[i]} {
					if l != nil {
						l.Close()
					}
				}
			}
		}
	}()
	for i := range memberIDs {
		if hls[i], err = listenLoopback(); err != nil {
			return nil, err
		}
		if gls[i], err = listenLoopback(); err != nil {
			return nil, err
		}
	}
	members := make([]cluster.Member, len(memberIDs))
	for i, id := range memberIDs {
		members[i] = cluster.Member{ID: id, Addr: hls[i].Addr().String(), Gossip: "http://" + gls[i].Addr().String()}
	}
	lr.members = members
	for i, id := range memberIDs {
		rep, err := lr.startReplica(rn.w.spec, id, members, i, hls[i], gls[i])
		if err != nil {
			return nil, err
		}
		lr.reps = append(lr.reps, rep)
	}
	// All members seen alive: two rounds take every node through both
	// of its peers.
	for round := 0; round < len(memberIDs)-1; round++ {
		for _, rep := range lr.reps {
			rep.node.Tick(context.Background())
		}
	}
	for _, rep := range lr.reps {
		st := rep.node.Status()
		for _, m := range st.Members {
			if m.Health != cluster.Alive.String() {
				return nil, fmt.Errorf("%s sees %s %s after the first gossip rounds", rep.id, m.ID, m.Health)
			}
		}
		if st.ExchangeFails != 0 {
			return nil, fmt.Errorf("%s: %d gossip exchanges failed during set-up", rep.id, st.ExchangeFails)
		}
		rep.stop = rep.node.Start(gossipInterval)
	}
	cms := make([]client.ClusterMember, len(lr.reps))
	for i, rep := range lr.reps {
		cms[i] = client.ClusterMember{ID: rep.id, BaseURL: rep.d.url}
	}
	if lr.cc, err = client.NewCluster(client.ClusterConfig{Members: cms}); err != nil {
		return nil, err
	}
	return lr, nil
}

func (lr *learnRig) startReplica(spec runtimeSpec, id string, members []cluster.Member, self int, hl, gl net.Listener) (*replica, error) {
	cal := audit.NewCalibrator(0)
	rep := &replica{id: id, lrn: learn.New(learn.Config{Fallback: cal}), tr: &recordingTransport{}}
	calSrc := cluster.NewVersionedSource("calibration", cal.SnapshotState, cal.MergeState)
	lrnSrc := cluster.NewVersionedSource("learner", rep.lrn.EncodeState, func(data []byte) (bool, error) {
		s, err := learn.DecodeState(data)
		if err != nil {
			return false, err
		}
		return rep.lrn.Merge(s)
	})
	rt, err := newRuntime(spec, 0, rep.lrn)
	if err != nil {
		return nil, err
	}
	rep.aud = audit.New(audit.Config{
		Runtime:    rt,
		Rate:       auditRate,
		Workers:    1,
		Calibrator: cal,
		Learner:    rep.lrn,
		OnVerdict: func(v audit.Verdict) {
			calSrc.Bump()
			lrnSrc.Bump()
			lr.mu.Lock()
			lr.audits[key{v.Region, v.Bindings["n"]}] = true
			lr.mu.Unlock()
		},
	})
	rt.SetObserver(rep.aud.Observer(nil))
	var peers []cluster.Member
	for i, m := range members {
		if i != self {
			peers = append(peers, m)
		}
	}
	rep.node, err = cluster.New(cluster.Config{Self: members[self], Peers: peers, Transport: rep.tr, Logger: discardLogger()})
	if err != nil {
		rep.aud.Close()
		return nil, err
	}
	rep.node.Register(calSrc.Source())
	rep.node.Register(lrnSrc.Source())
	rep.gossip = &http.Server{Handler: rep.node.Handler()}
	rep.gwg.Add(1)
	go func() {
		defer rep.gwg.Done()
		_ = rep.gossip.Serve(gl)
	}()
	rep.d, err = startDaemon(server.Config{
		Runtime: rt, Auditor: rep.aud, Learner: rep.lrn, Cluster: rep.node,
	}, hl, false)
	if err != nil {
		rep.gossip.Close()
		rep.gwg.Wait()
		rep.aud.Close()
		return nil, err
	}
	return rep, nil
}

// ringOwners gives each key the index in memberIDs of its ring owner,
// the replica a verdict comes from unless a hedge or a failover served
// it. The cluster client routes by the same ring (cluster.owner_pct).
func ringOwners(keys []key) ([]uint8, error) {
	ring, err := cluster.NewRing(memberIDs, cluster.DefaultVnodes)
	if err != nil {
		return nil, err
	}
	at := map[string]uint8{}
	for i, id := range memberIDs {
		at[id] = uint8(i)
	}
	owner := make([]uint8, len(keys))
	for i, k := range keys {
		owner[i] = at[ring.Owner(cluster.RegionKey(k.Region, keyHash(k.N)))]
	}
	return owner, nil
}

func (lr *learnRig) call(ctx context.Context, c *caller) callOut {
	k := c.next()
	ky := lr.keys[k]
	// A fresh request per call: a losing cross-replica hedge may still
	// be reading it after Decide returns.
	v, err := lr.cc.Decide(ctx, server.DecideRequest{Region: ky.Region, Bindings: bindings(ky.N)})
	out := verdictOut(c, lr.exp, int(k), v, err, client.TransportHTTPJSON)
	if err == nil && v.Replica == memberIDs[lr.owner[k]] {
		out.owned = 1
	}
	return out
}

// raw posts one JSON decide straight to the key's owner.
func (lr *learnRig) raw(ctx context.Context, c *caller) (callOut, error) {
	k := c.next()
	ky := lr.keys[k]
	body, err := jsonBody(server.DecideRequest{Region: ky.Region, Bindings: bindings(ky.N)})
	if err != nil {
		return callOut{}, err
	}
	var resp server.DecideResponseV2
	if err := postJSON(ctx, lr.raw1, lr.reps[lr.owner[k]].d.url, body, &resp); err != nil {
		return callOut{}, err
	}
	if err := lr.exp.check(int(k), &resp); err != nil {
		return callOut{}, fmt.Errorf("raw JSON verdict: %w", err)
	}
	if len(lr.seen) < codecSample {
		lr.seen = append(lr.seen, resp)
	}
	c.dn = append(c.dn[:0], resp.DecisionNanos)
	return callOut{decisions: 1, owned: 1, dn: c.dn}, nil
}

func (lr *learnRig) counters(ctx context.Context) (counters, error) {
	var cs counters
	cm := lr.cc.Metrics()
	cs.cluster = cm
	for _, m := range cm.Replicas {
		cs.addClient(m)
	}
	for _, rep := range lr.reps {
		cs.addRuntime(rep.d.rt.Metrics())
		ar := rep.aud.Report()
		cs.auditSamples += ar.Samples
		cs.auditDropped += ar.Dropped
		ls := rep.lrn.Stats()
		cs.learned += ls.LearnedVerdicts
		cs.analytical += ls.AnalyticalVerdicts
		cs.confident += ls.ConfidentModels
		cs.exchanges += rep.node.Status().Exchanges
		if err := cs.scrape(ctx, rep.d.url); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

// drainAudits stops every replica's auditor once the queued audits have
// run, so the evaluation pass sees the state the run trained.
func (lr *learnRig) drainAudits() {
	for _, rep := range lr.reps {
		rep.aud.Close()
	}
}

func (lr *learnRig) auditedKeys() map[key]bool {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	out := make(map[key]bool, len(lr.audits))
	for k := range lr.audits {
		out[k] = true
	}
	return out
}

func (lr *learnRig) close() {
	if lr.cc != nil {
		lr.cc.Close()
	}
	lr.raw1.CloseIdleConnections()
	for _, rep := range lr.reps {
		if rep.stop != nil {
			rep.stop()
		}
		rep.d.close()
		rep.gossip.Close()
		rep.gwg.Wait()
		rep.aud.Close()
	}
}
