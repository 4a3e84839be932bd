// Cluster mode: route each decide to its key's owner replica on a
// consistent-hash ring, hedge to the ring successor (never the same
// node), fail over through the successor order, and treat breaker state
// per replica — each member gets its own full resilience pipeline, so
// one sick replica cannot open the breaker for traffic owned by the
// healthy ones.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// ClusterMember names one replica of a sharded decision plane.
type ClusterMember struct {
	ID      string
	BaseURL string
}

// ClusterConfig parameterizes a ClusterClient.
type ClusterConfig struct {
	// Members is the static replica set (at least one).
	Members []ClusterMember
	// Vnodes is the ring's virtual-node count per member
	// (cluster.DefaultVnodes if 0).
	Vnodes int
	// Replica is the per-replica client template. BaseURL, Fallback and
	// DisableHedging are overridden per member: each replica client gets
	// its member's URL, no fallback runtime (failures must surface so
	// the cluster layer can fail over), and same-replica hedging off —
	// the cluster hedge goes to the ring successor instead.
	Replica Config
	// Fallback serves in-process verdicts when every routable replica
	// has failed, exactly like the single-daemon client's fallback.
	Fallback *offload.Runtime
	// HedgeAfter fixes the cross-replica hedge delay. 0 derives it from
	// the owner replica's observed p99 attempt latency; hedging is
	// disabled via Replica.DisableHedging.
	HedgeAfter time.Duration
	// Health, when non-nil, reports a member's gossip verdict
	// (cluster.Node.HealthOf). Routing demotes suspect members behind
	// alive ones and dead members to last resort, preserving ring order
	// within each class. Ownership itself never moves.
	Health func(id string) cluster.Health
}

// clusterMetrics is the cluster layer's own instrumentation, on top of
// each replica client's Metrics.
type clusterMetrics struct {
	requests       atomic.Uint64
	failovers      atomic.Uint64
	crossHedges    atomic.Uint64
	crossHedgeWins atomic.Uint64
	fallbacks      atomic.Uint64
	demoted        atomic.Uint64
}

// ClusterMetrics is a point-in-time snapshot of the cluster layer.
type ClusterMetrics struct {
	// Requests counts logical requests entering the cluster client.
	Requests uint64
	// Failovers counts calls (or batch groups) re-routed to a successor
	// after the preferred replica failed.
	Failovers uint64
	// CrossHedges counts hedges launched at the ring successor;
	// CrossHedgeWins counts those that finished first.
	CrossHedges    uint64
	CrossHedgeWins uint64
	// Fallbacks counts verdicts served by the cluster-level in-process
	// runtime after every routable replica failed.
	Fallbacks uint64
	// Demoted counts routing decisions where the ring owner was skipped
	// because gossip reported it suspect or dead.
	Demoted uint64
	// Replicas holds each member's client snapshot, keyed by member ID.
	Replicas map[string]Metrics
}

// ClusterClient routes decide traffic across a replica set. Safe for
// concurrent use.
type ClusterClient struct {
	cfg     ClusterConfig
	ring    *cluster.Ring
	clients map[string]*Client
	fb      *Client // fallback-only; never touches the network
	met     clusterMetrics
}

// NewCluster builds a cluster client over the member set.
func NewCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("client: cluster needs at least one member")
	}
	ids := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		if m.ID == "" || m.BaseURL == "" {
			return nil, fmt.Errorf("client: cluster member %d needs an ID and a BaseURL", i)
		}
		ids[i] = m.ID
	}
	ring, err := cluster.NewRing(ids, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	cc := &ClusterClient{cfg: cfg, ring: ring, clients: make(map[string]*Client, len(cfg.Members))}
	for i, m := range cfg.Members {
		rcfg := cfg.Replica
		rcfg.BaseURL = m.BaseURL
		rcfg.Fallback = nil
		rcfg.DisableHedging = true
		if rcfg.Seed == 0 {
			rcfg.Seed = 1
		}
		rcfg.Seed += int64(i) // decorrelate backoff jitter across replicas
		rc, err := New(rcfg)
		if err != nil {
			return nil, fmt.Errorf("client: cluster member %s: %w", m.ID, err)
		}
		cc.clients[m.ID] = rc
	}
	if cfg.Fallback != nil {
		fbCfg := cfg.Replica
		fbCfg.BaseURL = "http://cluster-fallback.invalid"
		fbCfg.Fallback = cfg.Fallback
		fbCfg.Stream = false
		cc.fb, err = New(fbCfg)
		if err != nil {
			return nil, err
		}
	}
	return cc, nil
}

// Close tears down every replica client.
func (cc *ClusterClient) Close() {
	for _, c := range cc.clients {
		c.Close()
	}
	if cc.fb != nil {
		cc.fb.Close()
	}
}

// Ring returns the routing ring (for status displays and tests).
func (cc *ClusterClient) Ring() *cluster.Ring { return cc.ring }

// Client returns one member's replica client (nil for unknown IDs), so
// callers can inspect per-replica breaker state and metrics.
func (cc *ClusterClient) Client(id string) *Client { return cc.clients[id] }

// Route returns the replica order a request would be tried in: the
// key's ring successor list, alive members first, suspect next, dead
// last, ring order preserved within each class.
func (cc *ClusterClient) Route(req server.DecideRequest) []string {
	key := cluster.RegionKey(req.Region, attrdb.BindingsHash(symbolic.Bindings(req.Bindings)))
	order := cc.ring.Successors(key, 0)
	if cc.cfg.Health == nil {
		return order
	}
	ranked := make([]string, 0, len(order))
	for _, class := range []cluster.Health{cluster.Alive, cluster.Suspect, cluster.Dead} {
		for _, id := range order {
			if cc.cfg.Health(id) == class {
				ranked = append(ranked, id)
			}
		}
	}
	// Members with out-of-range health verdicts route last rather than
	// vanish.
	if len(ranked) < len(order) {
		seen := map[string]bool{}
		for _, id := range ranked {
			seen[id] = true
		}
		for _, id := range order {
			if !seen[id] {
				ranked = append(ranked, id)
			}
		}
	}
	if len(ranked) > 0 && len(order) > 0 && ranked[0] != order[0] {
		cc.met.demoted.Add(1)
	}
	return ranked
}

// Decide returns a verdict for one request: owner replica first, hedged
// to the ring successor, failing over through the rest of the successor
// order, and finally the in-process fallback runtime.
func (cc *ClusterClient) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	cc.met.requests.Add(1)
	order := cc.Route(req)

	v, tried, err := cc.decidePrimary(ctx, req, order)
	if err == nil {
		return v, nil
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		return nil, err
	}
	// Failover: everyone the primary race consumed has failed; walk the
	// remaining successors.
	for _, id := range order[tried:] {
		if ctx.Err() != nil {
			break
		}
		cc.met.failovers.Add(1)
		v, ferr := cc.clients[id].Decide(ctx, req)
		if ferr == nil {
			v.Replica = id
			return v, nil
		}
		if errors.As(ferr, &perm) {
			return nil, ferr
		}
		err = ferr
	}
	if cc.fb != nil {
		cc.met.fallbacks.Add(1)
		v, ferr := cc.fb.fallbackOne(req, 0)
		if ferr != nil {
			return nil, fmt.Errorf("%w (fallback: %w)", err, ferr)
		}
		return v, nil
	}
	return nil, err
}

// decidePrimary races the owner replica against a hedge at the first
// ring successor. The hedge launches after the cross-replica hedge
// delay and never targets the owner — a sick owner cannot absorb its
// own hedge. tried reports how many replicas of the order the race
// consumed, so failover resumes after them.
func (cc *ClusterClient) decidePrimary(ctx context.Context, req server.DecideRequest, order []string) (v *Verdict, tried int, err error) {
	delay := cc.hedgeDelay(cc.clients[order[0]], req, len(order) > 1)
	out, hedged, tried, err := race(ctx, delay, 0, &cc.met.crossHedges, replicaRunner{cc, req, order})
	if err != nil {
		return nil, tried, err
	}
	if hedged {
		cc.met.crossHedgeWins.Add(1)
		out.v.Provenance = ProvenanceHedged
	}
	return out.v, tried, out.err
}

// replicaRunner runs one call of the cross-replica hedge race: the
// primary at the ring owner, the hedge at its first successor.
type replicaRunner struct {
	cc    *ClusterClient
	req   server.DecideRequest
	order []string
}

// replicaOut is one replica's answer.
type replicaOut struct {
	v   *Verdict
	err error
}

func (o replicaOut) ok() bool { return o.err == nil }

func (r replicaRunner) run(ctx context.Context, hedge bool) replicaOut {
	id := r.order[0]
	if hedge {
		id = r.order[1]
	}
	v, err := r.cc.clients[id].Decide(ctx, r.req)
	if v != nil {
		v.Replica = id
	}
	return replicaOut{v, err}
}

// hedgeDelay picks the cross-replica hedge delay for one request.
func (cc *ClusterClient) hedgeDelay(primary *Client, req server.DecideRequest, haveSuccessor bool) time.Duration {
	if req.Execute || !haveSuccessor || cc.cfg.Replica.DisableHedging {
		return 0
	}
	if cc.cfg.HedgeAfter > 0 {
		return cc.cfg.HedgeAfter
	}
	// Derive from the owner's own per-transport p99 — the question a
	// hedge answers is "is the owner slower than it usually is".
	return primary.hedgeDelay(true, primary.streamEnabled())
}

// DecideBatch returns verdicts positionally, sharding the batch by each
// item's owner replica: one DecideBatch per owner group, groups in
// flight concurrently, each group failing over through its successor
// order and degrading to the cluster fallback runtime as a last resort.
func (cc *ClusterClient) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	cc.met.requests.Add(uint64(len(reqs)))
	type group struct {
		order []string
		idx   []int
	}
	groups := map[string]*group{}
	for i, req := range reqs {
		order := cc.Route(req)
		g := groups[order[0]]
		if g == nil {
			g = &group{order: order}
			groups[order[0]] = g
		}
		g.idx = append(g.idx, i)
	}

	out := make([]Verdict, len(reqs))
	errs := make([]error, 0, len(groups))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			sub := make([]server.DecideRequest, len(g.idx))
			for j, i := range g.idx {
				sub[j] = reqs[i]
			}
			vs, err := cc.batchGroup(ctx, sub, g.order)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			for j, i := range g.idx {
				out[i] = vs[j]
			}
		}(g)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return out, nil
}

// batchGroup sends one owner group's requests, failing over through the
// group's replica order.
func (cc *ClusterClient) batchGroup(ctx context.Context, sub []server.DecideRequest, order []string) ([]Verdict, error) {
	var lastErr error
	for hop, id := range order {
		if hop > 0 {
			cc.met.failovers.Add(1)
		}
		vs, err := cc.clients[id].DecideBatch(ctx, sub)
		if err == nil {
			for i := range vs {
				vs[i].Replica = id
			}
			return vs, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if cc.fb != nil {
		cc.met.fallbacks.Add(1)
		vs := make([]Verdict, len(sub))
		for i, req := range sub {
			v, ferr := cc.fb.fallbackOne(req, 0)
			if ferr != nil {
				return nil, fmt.Errorf("%w (fallback: %w)", lastErr, ferr)
			}
			vs[i] = *v
		}
		return vs, nil
	}
	return nil, lastErr
}

// Metrics returns a snapshot of the cluster layer plus every replica
// client.
func (cc *ClusterClient) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Requests:       cc.met.requests.Load(),
		Failovers:      cc.met.failovers.Load(),
		CrossHedges:    cc.met.crossHedges.Load(),
		CrossHedgeWins: cc.met.crossHedgeWins.Load(),
		Fallbacks:      cc.met.fallbacks.Load(),
		Demoted:        cc.met.demoted.Load(),
		Replicas:       make(map[string]Metrics, len(cc.clients)),
	}
	for id, c := range cc.clients {
		m.Replicas[id] = c.Metrics()
	}
	return m
}

// WritePrometheus renders the cluster-layer counters plus each replica
// client's exposition, replica series prefixed per member so one scrape
// covers the whole routing stack.
func (cc *ClusterClient) WritePrometheus(w io.Writer) error {
	m := cc.Metrics()
	var err error
	counter := func(name, help string, v uint64) {
		if err == nil {
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				name, help, name, name, v)
		}
	}
	counter("hybridselc_cluster_requests_total", "Logical requests entering the cluster client.", m.Requests)
	counter("hybridselc_cluster_failovers_total", "Calls re-routed to a ring successor.", m.Failovers)
	counter("hybridselc_cluster_hedges_total", "Hedges launched at the ring successor.", m.CrossHedges)
	counter("hybridselc_cluster_hedge_wins_total", "Successor hedges that finished first.", m.CrossHedgeWins)
	counter("hybridselc_cluster_fallback_total", "Verdicts served by the cluster fallback runtime.", m.Fallbacks)
	counter("hybridselc_cluster_demoted_total", "Routes where gossip demoted the ring owner.", m.Demoted)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(m.Replicas))
	for id := range m.Replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err = fmt.Fprintf(w, "# Replica %s\n", id); err != nil {
			return err
		}
		rm := m.Replicas[id]
		if err = rm.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}
