// Package client is the production-shape client for the hybridseld
// decision service: the piece that turns "speak HTTP to the daemon" into
// "always get a launch-site verdict".
//
// A Verdict always arrives (when a fallback runtime is configured),
// carries the full ranked candidate list from /v2/decide (top-1 is the
// chosen target's registry ID), and always says where it came from:
//
//   - remote:   the daemon answered a plain request.
//   - hedged:   the daemon answered, but it was the hedge — a duplicate
//     fired after a p99-derived delay — that won the race.
//   - fallback: the daemon was unreachable (circuit open, or every
//     retry failed) and the verdict came from the in-process
//     compiled-model runtime. Because the analytical models are
//     deterministic, a fallback verdict is bit-for-bit the verdict the
//     daemon would have served.
//
// The resilience pipeline, outermost first: request coalescing (identical
// in-flight decide-only requests share one network call) and optional
// time-window batching; a consecutive-failure circuit breaker; retries
// with exponential backoff + jitter that honor Retry-After; hedging of
// idempotent requests; connection pooling. Every stage is instrumented
// (Metrics / WritePrometheus, hybridselc_ namespace), mirroring the
// daemon's own exposition.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// Provenance says which path produced a Verdict.
type Provenance string

// Provenance values.
const (
	ProvenanceRemote   Provenance = "remote"
	ProvenanceHedged   Provenance = "hedged"
	ProvenanceFallback Provenance = "fallback"
)

// Transport values carried on Verdict: which encoding/transport served
// it. Local marks fallback verdicts served in-process.
const (
	TransportStream     = "stream"
	TransportHTTPBinary = "http-binary"
	TransportHTTPJSON   = "http-json"
	TransportLocal      = "local"
)

// Verdict is a decision with its delivery story. Response.Verdict is
// the chosen target's registry ID ("cpu/base", "gpu/prev", ...; "split"
// for a cooperative split) and Response.Candidates the full ranking, so
// callers comparing verdicts from different paths (hedged vs primary,
// fallback vs daemon) compare target identities, not a CPU/GPU boolean.
type Verdict struct {
	Response server.DecideResponseV2
	// Provenance is remote, hedged, or fallback.
	Provenance Provenance
	// Attempts counts HTTP attempts consumed (0 for a pure-fallback
	// verdict served while the breaker was open).
	Attempts int
	// Coalesced marks a verdict served by another caller's identical
	// in-flight request rather than a network call of its own.
	Coalesced bool
	// Transport says which transport served the verdict (stream,
	// http-binary, http-json, or local for fallback verdicts), so
	// callers and load gates can attribute throughput per transport.
	Transport string
	// Replica is the cluster member ID that served the verdict when the
	// call went through a ClusterClient ("" for single-daemon clients
	// and for in-process fallback verdicts), so callers can audit
	// routing: owner for plain verdicts, the ring successor for hedged
	// and failed-over ones.
	Replica string
}

// ErrCircuitOpen reports that the breaker rejected the call and no
// fallback runtime was configured.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxAttempts     = 4
	DefaultRetryBackoff    = 20 * time.Millisecond
	DefaultMaxBackoff      = time.Second
	DefaultTimeout         = 2 * time.Second
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = 500 * time.Millisecond
	DefaultHedgeMinSamples = 20
	DefaultMaxBatch        = 64
)

// Config parameterizes a Client.
type Config struct {
	// BaseURL is the daemon base URL, e.g. "http://127.0.0.1:8080"
	// (required).
	BaseURL string
	// HTTPClient overrides the pooled default transport.
	HTTPClient *http.Client

	// Fallback, when non-nil, serves verdicts in-process when the remote
	// is unavailable (breaker open or retries exhausted). Configure it
	// identically to the daemon — platform, policy, threads — and
	// fallback verdicts match the daemon's bit-for-bit.
	Fallback *offload.Runtime

	// MaxAttempts bounds HTTP attempts per logical call, first try
	// included. 0 selects DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int
	// RetryBackoff is the base backoff, doubled per attempt with ±50%
	// jitter, capped at MaxBackoff. A server Retry-After longer than the
	// computed backoff wins.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Timeout is the per-attempt deadline. 0 selects DefaultTimeout.
	Timeout time.Duration

	// HedgeAfter fixes the hedging delay. 0 derives it from the observed
	// p99 attempt latency (no hedging until HedgeMinSamples successes).
	// Only idempotent (decide-only) calls are hedged — Execute requests
	// dispatch work and are never duplicated.
	HedgeAfter      time.Duration
	HedgeMinSamples int
	DisableHedging  bool

	// BreakerFailures consecutive eligible failures open the breaker;
	// it stays open for BreakerCooldown, then half-opens for one probe.
	BreakerFailures int
	BreakerCooldown time.Duration

	// BatchWindow > 0 enables transparent batching: concurrent Decide
	// calls are collected for up to BatchWindow (or MaxBatch requests)
	// and sent as one /v2/decide batch. Duplicate (region, bindings)
	// pairs inside a window are coalesced client-side.
	BatchWindow time.Duration
	MaxBatch    int

	// Seed fixes the backoff-jitter RNG for reproducible runs (0 = 1).
	Seed int64

	// Binary switches /v2/decide traffic to the compact frame format
	// (wire.ContentType) over the same pooled, long-lived connections.
	// If the peer turns out not to speak frames — an old daemon or a
	// JSON-rewriting middlebox answers a frame body with a JSON
	// bad_request envelope, or a 200 body fails to decode — the client
	// downgrades to JSON once, stickily, and retries; no verdict is
	// lost to the negotiation (Metrics.WireDowngrades counts it).
	Binary bool
	// RegionParams, when non-nil with Binary set, returns a region's
	// canonical parameter names in sorted order (nil/mismatched length
	// = unknown region). Requests whose binding names are exactly those
	// params ride the slot-vector wire form — values only plus a key
	// hash — which the daemon copies straight into its pooled slot
	// vectors. Without the hook, frames carry named bindings, which is
	// still far cheaper than JSON.
	RegionParams func(region string) []string

	// Stream routes decide-only single requests over a small pool of
	// persistent multiplexed frame-stream connections (StreamConns of
	// them, automatically redialed with backoff), falling back to HTTP
	// inside the same attempt whenever a stream connection is dead,
	// drained, or mid-reconnect — a dying connection costs latency,
	// never a verdict. An endpoint that does not speak the stream
	// dialect (version skew, refused upgrade) latches a sticky
	// downgrade to HTTP framing, mirroring the binary→JSON ladder.
	// Execute and batch requests always use HTTP.
	Stream bool
	// StreamAddr is the daemon's raw TCP stream listener
	// (hybridseld -stream-addr). Empty negotiates the stream over the
	// HTTP port via Upgrade on GET /v1/stream.
	StreamAddr string
	// StreamConns is the stream connection pool size. 0 selects
	// DefaultStreamConns.
	StreamConns int
}

// Client is a resilient hybridseld client. Safe for concurrent use.
type Client struct {
	cfg     Config
	http    *http.Client
	breaker *breaker
	met     metrics
	// Hedge-delay estimation is per transport: stream and HTTP attempt
	// latencies live in different regimes (no per-request framing vs
	// full request/response cycles), so mixing them would fire stream
	// hedges on stale HTTP p99s and vice versa.
	latHTTP   *latencySampler
	latStream *latencySampler
	batcher   *batcher

	// wireDown latches a sticky downgrade from binary frames to JSON
	// after the peer proves it does not speak the frame protocol.
	wireDown atomic.Bool
	// streamDown latches the analogous sticky downgrade from the
	// stream transport to HTTP framing.
	streamDown atomic.Bool
	spool      *streamPool

	jmu sync.Mutex
	rng *rand.Rand

	fmu      sync.Mutex
	inflight map[string]*flight
}

// flight is one in-progress decide shared by coalesced callers.
type flight struct {
	done chan struct{}
	v    *Verdict
	err  error
}

// New builds a client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimSuffix(cfg.BaseURL, "/")
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = DefaultBreakerFailures
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = DefaultHedgeMinSamples
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	c := &Client{
		cfg:       cfg,
		http:      hc,
		latHTTP:   newLatencySampler(),
		latStream: newLatencySampler(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		inflight:  map[string]*flight{},
	}
	c.breaker = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown,
		func(from, to BreakerState) { c.met.breakerTransition(to) })
	if cfg.BatchWindow > 0 {
		c.batcher = newBatcher(c, cfg.BatchWindow, cfg.MaxBatch)
	}
	if cfg.Stream {
		c.spool = newStreamPool(c)
	}
	return c, nil
}

// Close stops the background batcher and tears down any pooled stream
// connections. In-flight calls finish (stream in-flight fail over to
// HTTP via the normal retry path).
func (c *Client) Close() {
	if c.batcher != nil {
		c.batcher.close()
	}
	if c.spool != nil {
		c.spool.close()
	}
}

// BreakerState returns the circuit breaker's current state.
func (c *Client) BreakerState() BreakerState { return c.breaker.State() }

// Metrics returns a snapshot of the client's instrumentation.
func (c *Client) Metrics() Metrics { return c.met.snapshot(c.breaker.State()) }

// WritePrometheus renders the client metrics in the Prometheus text
// exposition format under the hybridselc_ namespace — the client-side
// mirror of the daemon's /metrics.
func (c *Client) WritePrometheus(w io.Writer) error {
	return c.Metrics().WritePrometheus(w)
}

// Decide returns a verdict for one decision request. Identical
// decide-only requests in flight at once share a single network call;
// with batching enabled (Config.BatchWindow) concurrent calls ride one
// batched request.
func (c *Client) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	c.met.requests.Add(1)
	if req.Execute {
		// Execute dispatches work on the daemon: no coalescing with
		// decide-only traffic, no batching, and never hedged.
		return c.decideRemoteOrFallback(ctx, c.newPayload(req))
	}
	if c.batcher != nil {
		return c.batcher.decide(ctx, req)
	}
	return c.decideCoalesced(ctx, req)
}

// decideCoalesced funnels identical concurrent decide-only requests into
// one in-flight call.
func (c *Client) decideCoalesced(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	p := c.newPayload(req)
	key := p.one.key
	c.fmu.Lock()
	if fl, ok := c.inflight[key]; ok {
		c.fmu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			return nil, fl.err
		}
		c.met.coalesced.Add(1)
		v := *fl.v
		v.Coalesced = true
		return &v, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.fmu.Unlock()

	v, err := c.decideRemoteOrFallback(ctx, p)
	fl.v, fl.err = v, err
	c.fmu.Lock()
	delete(c.inflight, key)
	c.fmu.Unlock()
	close(fl.done)
	return v, err
}

// decideRemoteOrFallback is the per-request pipeline: breaker → retries
// (+hedging) → fallback.
func (c *Client) decideRemoteOrFallback(ctx context.Context, p *payload) (*Verdict, error) {
	res, hedged, attempts, rerr := c.roundTrip(ctx, p, !p.one.Execute)
	if rerr == nil {
		var resp server.DecideResponseV2
		if res.frame != nil {
			resp = wireToResponseV2(res.frame.Resp)
		} else if err := json.Unmarshal(res.data, &resp); err != nil {
			return nil, fmt.Errorf("client: decode response: %w", err)
		}
		prov := ProvenanceRemote
		if hedged {
			prov = ProvenanceHedged
		}
		c.met.remoteOK.Add(1)
		return &Verdict{Response: resp, Provenance: prov, Attempts: attempts, Transport: res.transport}, nil
	}
	var perm *permanentError
	if errors.As(rerr, &perm) {
		return nil, rerr
	}
	v, ferr := c.fallbackOne(p.one.DecideRequest, attempts)
	if ferr != nil {
		return nil, fmt.Errorf("%w (fallback: %w)", rerr, ferr)
	}
	return v, nil
}

// DecideBatch returns verdicts for a slice of requests, positionally.
// The batch goes out as one /v2/decide call with duplicate requests
// coalesced client-side; per-item failures are carried in each verdict's
// Response.Error envelope exactly as the daemon reports them. When the
// daemon is unreachable every item degrades to the fallback runtime.
func (c *Client) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.met.requests.Add(uint64(len(reqs)))
	return c.decideBatch(ctx, reqs)
}

// decideBatch is DecideBatch without the request count (the window
// batcher counts items as callers enter Decide).
func (c *Client) decideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	c.met.batchCalls.Add(1)

	// Client-side coalescing: send each distinct request once.
	unique := make([]request, 0, len(reqs))
	slot := make([]int, len(reqs)) // request index -> unique index
	byKey := map[string]int{}
	canHedge := true
	for i, req := range reqs {
		if req.Execute {
			canHedge = false
		}
		r := prepare(req)
		u, ok := byKey[r.key]
		if !ok {
			u = len(unique)
			byKey[r.key] = u
			unique = append(unique, r)
		} else {
			c.met.coalesced.Add(1)
		}
		slot[i] = u
	}

	results, prov, transport, attempts, err := c.batchRemoteOrFallback(ctx, unique, canHedge)
	if err != nil {
		return nil, err
	}
	out := make([]Verdict, len(reqs))
	for i, u := range slot {
		out[i] = Verdict{
			Response:   results[u],
			Provenance: prov,
			Attempts:   attempts,
			Coalesced:  slot[i] != i && i > 0 && sameSlotEarlier(slot, i),
			Transport:  transport,
		}
	}
	return out, nil
}

// sameSlotEarlier reports whether an earlier request already claimed this
// item's unique slot (i.e. this verdict was coalesced client-side).
func sameSlotEarlier(slot []int, i int) bool {
	for j := 0; j < i; j++ {
		if slot[j] == slot[i] {
			return true
		}
	}
	return false
}

// batchRemoteOrFallback sends one batched call, degrading every item to
// the fallback runtime if the remote is unavailable.
func (c *Client) batchRemoteOrFallback(ctx context.Context, unique []request, canHedge bool) ([]server.DecideResponseV2, Provenance, string, int, error) {
	res, hedged, attempts, rerr := c.roundTrip(ctx, c.newBatchPayload(unique), canHedge)
	if rerr == nil {
		var results []server.DecideResponseV2
		if res.frame != nil {
			results = make([]server.DecideResponseV2, len(res.frame.Resps))
			for i := range res.frame.Resps {
				results[i] = wireToResponseV2(&res.frame.Resps[i])
			}
		} else {
			var br server.BatchResponseV2
			if err := json.Unmarshal(res.data, &br); err != nil {
				return nil, "", "", 0, fmt.Errorf("client: decode batch response: %w", err)
			}
			results = br.Results
		}
		if len(results) != len(unique) {
			return nil, "", "", 0, fmt.Errorf("client: batch returned %d results for %d requests",
				len(results), len(unique))
		}
		prov := ProvenanceRemote
		if hedged {
			prov = ProvenanceHedged
		}
		c.met.remoteOK.Add(1)
		return results, prov, res.transport, attempts, nil
	}
	var perm *permanentError
	if errors.As(rerr, &perm) {
		return nil, "", "", 0, rerr
	}
	results := make([]server.DecideResponseV2, len(unique))
	for i := range unique {
		v, ferr := c.fallbackOne(unique[i].DecideRequest, attempts)
		if ferr != nil {
			return nil, "", "", 0, fmt.Errorf("%w (fallback: %w)", rerr, ferr)
		}
		results[i] = v.Response
	}
	return results, ProvenanceFallback, TransportLocal, attempts, nil
}

// fallbackOne serves one verdict from the in-process runtime. Item-level
// model errors (unknown region, unbound symbol) are carried in
// Response.Error with the daemon's own error codes (server.ClassifyError),
// so a degraded client behaves like the daemon it replaces.
func (c *Client) fallbackOne(req server.DecideRequest, attempts int) (*Verdict, error) {
	rt := c.cfg.Fallback
	if rt == nil {
		return nil, errors.New("client: no fallback runtime configured")
	}
	resp := server.DecideResponseV2{Region: req.Region}
	b := symbolic.Bindings(req.Bindings)
	var out *offload.Outcome
	region, err := rt.Region(req.Region)
	if err == nil {
		if req.Execute {
			out, err = region.Launch(b)
		} else {
			out, err = region.Decide(b)
		}
	}
	if err != nil {
		c.met.fallbackErrors.Add(1)
		resp.Error = server.ClassifyError(err)
	} else {
		resp.Verdict = out.TargetID
		resp.Kind = out.Target.String()
		resp.Policy = out.Policy.Name()
		resp.Candidates = out.Candidates
		resp.SplitFraction = out.SplitFraction
		resp.CacheHit = out.CacheHit
		resp.ActualSeconds = out.ActualSeconds
		resp.DecisionNanos = out.DecisionOverhead.Nanoseconds()
	}
	c.met.fallbacks.Add(1)
	return &Verdict{Response: resp, Provenance: ProvenanceFallback, Attempts: attempts, Transport: TransportLocal}, nil
}

// ------------------------------------------------------------ transport --

// permanentError marks a response that retrying cannot fix (the request
// itself is wrong: bad_request, unknown_region, unbound_symbol, ...). It
// bypasses both retries and fallback.
type permanentError struct {
	status int
	code   string
	msg    string
}

func (e *permanentError) Error() string {
	if e.code != "" {
		return fmt.Sprintf("client: permanent HTTP %d (%s): %s", e.status, e.code, e.msg)
	}
	return fmt.Sprintf("client: permanent HTTP %d: %s", e.status, e.msg)
}

// callErr classifies one failed attempt.
type callErr struct {
	err        error
	retryable  bool
	breaker    bool // counts toward the circuit breaker
	retryAfter time.Duration
}

// roundTrip runs the breaker → hedged attempt → backoff loop and returns
// the decoded 200 response: the raw body for JSON attempts, the decoded
// frame for binary ones.
func (c *Client) roundTrip(ctx context.Context, p *payload, canHedge bool) (rtResult, bool, int, error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if !c.breaker.Allow() {
			if lastErr != nil {
				return rtResult{}, false, attempt - 1, fmt.Errorf("%w after %w", ErrCircuitOpen, lastErr)
			}
			return rtResult{}, false, attempt - 1, ErrCircuitOpen
		}
		res, hedgeWon, cerr := c.hedgedAttempt(ctx, p, canHedge)
		if cerr == nil {
			c.breaker.Success()
			return res, hedgeWon, attempt, nil
		}
		if cerr.breaker {
			c.breaker.Failure()
		}
		lastErr = cerr.err
		if !cerr.retryable {
			return rtResult{}, false, attempt, lastErr
		}
		if attempt == c.cfg.MaxAttempts || ctx.Err() != nil {
			break
		}
		c.met.retries.Add(1)
		d := c.backoff(attempt)
		if cerr.retryAfter > d {
			d = cerr.retryAfter
			c.met.retryAfterHonored.Add(1)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return rtResult{}, false, attempt, fmt.Errorf("client: %w (last attempt: %w)", ctx.Err(), lastErr)
		}
	}
	return rtResult{}, false, c.cfg.MaxAttempts,
		fmt.Errorf("client: %d attempts failed, last: %w", c.cfg.MaxAttempts, lastErr)
}

// backoff computes the jittered exponential delay after a given attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.jmu.Lock()
	j := c.rng.Float64()
	c.jmu.Unlock()
	// Uniform in [d/2, 3d/2): desynchronizes retry storms.
	return d/2 + time.Duration(j*float64(d))
}

// hedgedAttempt runs one attempt, racing a duplicate after the hedge
// delay when allowed. It reports whether the hedge produced the result.
func (c *Client) hedgedAttempt(ctx context.Context, p *payload, canHedge bool) (rtResult, bool, *callErr) {
	delay := c.hedgeDelay(canHedge, p.stream && c.streamEnabled())
	out, hedged, _, err := race(ctx, delay, c.cfg.Timeout, &c.met.hedges, attemptRunner{c, p})
	if err != nil {
		return rtResult{}, false, &callErr{err: err}
	}
	if hedged {
		c.met.hedgeWins.Add(1)
	}
	return out.res, hedged, out.cerr
}

// attemptRunner runs one attempt of a call for the hedge race.
type attemptRunner struct {
	c *Client
	p *payload
}

// attemptOut is one attempt's result.
type attemptOut struct {
	res  rtResult
	cerr *callErr
}

func (o attemptOut) ok() bool { return o.cerr == nil }

func (a attemptRunner) run(ctx context.Context, _ bool) attemptOut {
	res, cerr := a.c.attempt(ctx, a.p)
	return attemptOut{res, cerr}
}

// hedgeDelay returns the delay before a duplicate request is launched
// (0 = hedging off for this call). stream selects which transport's
// latency estimate to derive the delay from: the sampler matching the
// transport the attempt will actually use, so a client that switched
// transports never hedges on the other transport's stale p99.
func (c *Client) hedgeDelay(canHedge, stream bool) time.Duration {
	if !canHedge || c.cfg.DisableHedging {
		return 0
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	lat := c.latHTTP
	if stream {
		lat = c.latStream
	}
	p99 := lat.p99(c.cfg.HedgeMinSamples)
	if p99 <= 0 {
		return 0
	}
	// Clamp: hedging below 500µs just doubles load; above half the
	// attempt timeout it cannot win before the primary times out.
	if p99 < 500*time.Microsecond {
		p99 = 500 * time.Microsecond
	}
	if max := c.cfg.Timeout / 2; p99 > max {
		p99 = max
	}
	return p99
}

// attempt is one try at the daemon: the stream transport first when
// enabled for this request, then HTTP POST /v2/decide — a JSON body, or
// a frame body when binary mode is on and the peer hasn't been demoted
// to JSON. A stream failure at the transport level (dead connection,
// Goaway, reconnect backoff) falls through to HTTP inside this same
// attempt, so connection death never costs a verdict — the in-flight
// request fails over immediately. actx carries the attempt deadline.
func (c *Client) attempt(actx context.Context, p *payload) (rtResult, *callErr) {
	if p.stream && c.streamEnabled() {
		if res, cerr, resolved := c.streamAttempt(actx, p); resolved {
			return res, cerr
		}
		c.met.streamFallbacks.Add(1)
	}
	useWire := p.frames && !c.wireDown.Load()
	var body []byte
	contentType := "application/json"
	if useWire {
		body, contentType = p.wireBody(), wire.ContentType
	} else {
		var err error
		if body, err = p.jsonBody(); err != nil {
			return rtResult{}, &callErr{err: fmt.Errorf("client: encode request: %w", err)}
		}
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.cfg.BaseURL+"/v2/decide", bytes.NewReader(body))
	if err != nil {
		return rtResult{}, &callErr{err: err}
	}
	req.Header.Set("Content-Type", contentType)
	if useWire {
		c.met.wireCalls.Add(1)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.met.transportErrors.Add(1)
		return rtResult{}, &callErr{err: err, retryable: true, breaker: true}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Truncated or reset mid-body: the response cannot be trusted.
		c.met.transportErrors.Add(1)
		return rtResult{}, &callErr{
			err:       fmt.Errorf("read body (HTTP %d): %w", resp.StatusCode, err),
			retryable: true, breaker: true,
		}
	}
	if resp.StatusCode == http.StatusOK {
		c.latHTTP.observe(time.Since(start))
		if !useWire {
			return rtResult{data: data, transport: TransportHTTPJSON}, nil
		}
		fr, cerr := c.decodeWireOK(p, data, resp.Header.Get("Content-Type"))
		if cerr != nil {
			return rtResult{}, cerr
		}
		return rtResult{frame: fr, transport: TransportHTTPBinary}, nil
	}
	// Classify on the envelope's structured code when the daemon sent
	// one; the HTTP status is the fallback for proxies and old daemons.
	// A binary attempt reads the code from a TypeError frame when the
	// peer answered in frames, falling back to the JSON envelope (errors
	// raised before content negotiation — shedding, drain — stay JSON).
	var re remoteErr
	isWireErr := false
	if useWire && wire.IsFrameContent(resp.Header.Get("Content-Type")) {
		re, isWireErr = parseWireErrBody(data)
	}
	if !isWireErr {
		re = parseErrBody(data)
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	if retryAfter == 0 {
		retryAfter = re.retryAfter
	}
	if useWire && !isWireErr && re.code == server.ErrCodeBadRequest {
		// A JSON bad_request answering a frame body is a peer that does
		// not speak frames (an old daemon failing to parse them as
		// JSON). Downgrade stickily and retry as JSON; the breaker does
		// not count it — the daemon is healthy, just older.
		c.downgradeWire()
		return rtResult{}, &callErr{
			err: fmt.Errorf("HTTP %d answering frames: %s (downgrading to JSON)",
				resp.StatusCode, re.String()),
			retryable: true,
		}
	}
	switch {
	case re.code == server.ErrCodeQueueFull ||
		(re.code == "" && resp.StatusCode == http.StatusTooManyRequests):
		// Deliberate shedding: retry later, but the daemon is healthy —
		// the breaker does not count it.
		c.met.sheds.Add(1)
		return rtResult{}, &callErr{
			err:        fmt.Errorf("HTTP %d: %s", resp.StatusCode, re.String()),
			retryable:  true,
			retryAfter: retryAfter,
		}
	case re.retryable(resp.StatusCode):
		c.met.serverErrors.Add(1)
		return rtResult{}, &callErr{
			err:        fmt.Errorf("HTTP %d: %s", resp.StatusCode, re.String()),
			retryable:  true,
			breaker:    true,
			retryAfter: retryAfter,
		}
	default:
		c.met.permanentErrors.Add(1)
		return rtResult{}, &callErr{
			err: &permanentError{status: resp.StatusCode, code: re.code, msg: re.msg},
		}
	}
}

// remoteErr is the parsed body of a non-2xx response: the structured
// envelope {"error": {code, message, retry_after?}} when the daemon sent
// one, otherwise the legacy {"error": "..."} string or the raw body.
type remoteErr struct {
	code       string
	msg        string
	retryAfter time.Duration
}

func (e remoteErr) String() string {
	if e.code != "" {
		return e.code + ": " + e.msg
	}
	return e.msg
}

// retryable reports whether the failure is transient. A structured code
// decides outright; without one the HTTP status has to.
func (e remoteErr) retryable(status int) bool {
	switch e.code {
	case server.ErrCodeQueueFull, server.ErrCodeDraining,
		server.ErrCodeDeadlineExceeded, server.ErrCodeInternal:
		return true
	case "":
		return status == http.StatusTooManyRequests || status >= 500
	}
	return false
}

// parseErrBody extracts the daemon's error from a non-2xx body.
func parseErrBody(data []byte) remoteErr {
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && len(env.Error) > 0 {
		var ei server.ErrorInfo
		if env.Error[0] == '{' && json.Unmarshal(env.Error, &ei) == nil && ei.Code != "" {
			return remoteErr{
				code:       ei.Code,
				msg:        ei.Message,
				retryAfter: time.Duration(ei.RetryAfter * float64(time.Second)),
			}
		}
		var s string
		if json.Unmarshal(env.Error, &s) == nil && s != "" {
			return remoteErr{msg: s}
		}
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return remoteErr{msg: s}
}

// parseRetryAfter accepts both RFC 9110 Retry-After forms: delay-seconds
// (integer, plus the float extension the daemon emits for sub-second
// hints) and an HTTP-date, honored as the delay from now. A date in the
// past, like a negative delay, means "retry immediately" — zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.ParseFloat(v, 64); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec * float64(time.Second))
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := time.Until(t); d > 0 {
		return d
	}
	return 0
}

// --------------------------------------------------------- latency p99 --

// latencySampler keeps a ring of recent successful attempt latencies and
// serves a cached p99 for hedge-delay derivation.
type latencySampler struct {
	mu      sync.Mutex
	ring    [256]int64
	sorted  [256]int64 // p99's sort buffer, reused between recomputations
	n       int        // total observations
	cached  time.Duration
	cachedN int
}

func newLatencySampler() *latencySampler { return &latencySampler{} }

func (s *latencySampler) observe(d time.Duration) {
	s.mu.Lock()
	s.ring[s.n%len(s.ring)] = int64(d)
	s.n++
	s.mu.Unlock()
}

// p99 returns the 99th percentile of the ring, or 0 with fewer than
// minSamples observations. Recomputed every 32 observations; cached in between.
func (s *latencySampler) p99(minSamples int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < minSamples {
		return 0
	}
	if s.cachedN != 0 && s.n-s.cachedN < 32 {
		return s.cached
	}
	size := min(s.n, len(s.ring))
	buf := s.sorted[:size]
	copy(buf, s.ring[:size])
	slices.Sort(buf)
	s.cached = time.Duration(buf[(size-1)*99/100])
	s.cachedN = s.n
	return s.cached
}
