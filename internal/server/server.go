// Package server exposes an offload runtime as a network decision
// service: the paper's launch-time selector behind an HTTP/JSON API, with
// the production concerns an in-process runtime never needed — admission
// control with load shedding, per-request deadlines, batch coalescing
// through the decision cache, Prometheus metrics, structured request
// logs, and graceful drain.
//
// Endpoints:
//
//	POST /v1/decide   single or batched decision requests (deprecated in
//	                  favor of /v2/decide; response shape frozen)
//	POST /v2/decide   ranked decision requests: every registered target's
//	                  prediction, ascending by calibrated seconds
//	GET  /v1/regions  the registered region set and its parameters
//	GET  /v1/targets  the execution-target registry the runtime ranks over
//	GET  /v1/audit    shadow-audit accuracy report (404 without an auditor)
//	GET  /metrics     Prometheus text exposition (runtime + server + audit)
//	GET  /healthz     liveness/readiness (503 while draining)
//
// Error responses on every endpoint share one envelope:
//
//	{"error": {"code": "unknown_region", "message": "...", "retry_after": 1}}
//
// with machine-classifiable codes (ErrCode* constants); retry_after (in
// seconds) appears only on transient rejections (429/503), mirroring the
// Retry-After header.
//
// Backpressure model: a request first claims one of QueueDepth admission
// tickets — none free means the service is saturated beyond its queue and
// the request is shed immediately with 429 and Retry-After (shedding at
// the door is what keeps the daemon deadlock-free: no request ever waits
// on an unbounded line). An admitted request then waits for one of
// Concurrency execution slots, bounded by its deadline; the wait is the
// "queue", the slots are the "workers". Every admitted request runs under
// a context deadline (RequestTimeout), so a stuck model evaluation cannot
// pin a slot forever.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultQueueDepth     = 1024
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxBatch       = 4096
)

// Config parameterizes a Server.
type Config struct {
	// Runtime is the decision runtime to serve (required).
	Runtime *offload.Runtime

	// Concurrency bounds simultaneously executing requests (the worker
	// pool). 0 selects GOMAXPROCS.
	Concurrency int
	// QueueDepth bounds admitted-but-waiting requests on top of
	// Concurrency; beyond it requests are shed with 429. 0 selects
	// DefaultQueueDepth; negative disables queueing (shed unless a
	// worker slot is immediately free).
	QueueDepth int
	// RequestTimeout is the per-request context deadline. 0 selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxBatch caps the number of requests in one batched /v1/decide
	// body. 0 selects DefaultMaxBatch.
	MaxBatch int
	// StreamCredit bounds in-flight streams per stream connection (the
	// flow-control window granted on connect). 0 selects
	// DefaultStreamCredit.
	StreamCredit int
	// Logger receives structured request logs (nil = slog.Default).
	Logger *slog.Logger

	// Auditor, when non-nil, is the shadow auditor observing the served
	// runtime. The server only reads from it: its accuracy accounting is
	// exposed on GET /v1/audit and folded into /metrics. Lifecycle
	// (wiring the observer, Close on drain) stays with the caller.
	Auditor *audit.Auditor

	// Learner, when non-nil, is the online residual learner correcting
	// the served runtime's rankings. The server only reads from it: its
	// models and verdict counters are exposed on GET /v1/learn and its
	// gauges folded into /metrics. Wiring (offload.Config.Calibrator,
	// the auditor's training feed) stays with the caller.
	Learner *learn.Learner

	// Cluster, when non-nil, is this replica's gossip node. The server
	// only reads from it: membership and state-replication status are
	// exposed on GET /v1/cluster and the hybridsel_cluster_* series
	// folded into /metrics. Lifecycle (the gossip loop, the gossip
	// listener) stays with the caller.
	Cluster *cluster.Node
}

// Server is the HTTP decision service.
type Server struct {
	cfg     Config
	rt      *offload.Runtime
	log     *slog.Logger
	mux     *http.ServeMux
	httpSrv *http.Server

	tickets chan struct{} // admission: Concurrency + QueueDepth
	slots   chan struct{} // execution: Concurrency

	start    time.Time
	draining atomic.Bool
	reqSeq   atomic.Uint64
	met      serverMetrics
	streams  streamRegistry

	// holdForTest, when set, runs while an execution slot is held —
	// lets tests saturate the queue deterministically.
	holdForTest func()
	// sentForTest, when set, runs in a stream worker right after a
	// response frame has been handed to the connection writer — lets
	// tests check what the accounting says once a reply is visible.
	sentForTest func()
}

// New builds a server around a runtime. The runtime's regions may keep
// being registered concurrently; the served set is looked up per request.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("server: Config.Runtime is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = DefaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		rt:      cfg.Runtime,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		tickets: make(chan struct{}, cfg.Concurrency+cfg.QueueDepth),
		slots:   make(chan struct{}, cfg.Concurrency),
		start:   time.Now(),
	}
	// One http.Server for the server's life: Serve and Shutdown may run
	// in either order, and a Serve after Shutdown returns at once.
	s.httpSrv = &http.Server{Handler: s.mux}
	s.mux.HandleFunc("POST /v1/decide", s.admit(s.deprecated(s.handleDecideV1)))
	s.mux.HandleFunc("POST /v2/decide", s.admit(s.handleDecideV2))
	s.mux.HandleFunc("GET /v1/stream", s.handleStreamUpgrade)
	s.mux.HandleFunc("GET /v1/regions", s.instrument(s.handleRegions))
	s.mux.HandleFunc("GET /v1/targets", s.instrument(s.handleTargets))
	s.mux.HandleFunc("GET /v1/audit", s.instrument(s.handleAudit))
	s.mux.HandleFunc("GET /v1/learn", s.instrument(s.handleLearn))
	s.mux.HandleFunc("GET /metrics", s.instrument(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument(s.handleHealthz))
	if cfg.Cluster != nil {
		s.mux.HandleFunc("GET /v1/cluster", s.instrument(s.handleCluster))
	}
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. Called after Shutdown
// has begun, it closes l and returns nil at once.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown. The bound address
// is logged, so ":0" is usable in scripts.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("listening", "addr", l.Addr().String())
	return s.Serve(l)
}

// Shutdown drains the server: health flips to 503 so load balancers stop
// sending, no new request is admitted, stream connections receive Goaway
// and finish their in-flight streams, and in-flight HTTP requests run to
// completion (all bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	serr := s.shutdownStreams(ctx)
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return serr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ------------------------------------------------------------ admission --

// admit wraps a handler with the full serving pipeline: request ID,
// logging, drain check, admission ticket, execution slot, deadline.
func (s *Server) admit(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrument(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Connection", "close")
			httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
			return
		}
		select {
		case s.tickets <- struct{}{}:
			defer func() { <-s.tickets }()
		default:
			// Saturated beyond the queue: shed at the door.
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "admission queue full")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		case <-ctx.Done():
			// Queued past the deadline: the client has likely given up.
			httpError(w, http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, "queued past deadline")
			return
		}
		if s.holdForTest != nil {
			s.holdForTest()
		}
		h(w, r.WithContext(ctx))
	})
}

// instrument wraps a handler with request IDs, in-flight accounting,
// status capture, latency observation and a structured log line.
func (s *Server) instrument(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%x-%06d", s.start.UnixNano()&0xffffff, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(cw, r)
		dur := time.Since(start)
		s.met.observe(r.URL.Path, cw.code, dur)
		// Per-request lines are Debug: at 10k+ decisions/sec an Info-level
		// access log costs more than the decisions. slog skips the
		// formatting entirely when the handler level is higher.
		s.log.Debug("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"status", cw.code, "bytes", cw.bytes,
			"dur_us", dur.Microseconds())
	}
}

// codeWriter captures the response status and size for logs and metrics.
type codeWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// ------------------------------------------------------------- decide --

// DecideRequest is one decision query: which registered region, under
// which runtime bindings. Execute additionally dispatches the chosen
// target on the simulated platform and reports the executed time.
type DecideRequest struct {
	Region   string           `json:"region"`
	Bindings map[string]int64 `json:"bindings"`
	Execute  bool             `json:"execute,omitempty"`
}

// DecideResponse is the served /v1 decision — the frozen legacy shape
// (binary CPU/GPU verdict plus the base pair's predictions). Error is
// set (and the other fields zero) for per-item failures inside a batch.
type DecideResponse struct {
	Region         string  `json:"region"`
	Target         string  `json:"target,omitempty"`
	PredCPUSeconds float64 `json:"predCpuSeconds,omitempty"`
	PredGPUSeconds float64 `json:"predGpuSeconds,omitempty"`
	SplitFraction  float64 `json:"splitFraction,omitempty"`
	CacheHit       bool    `json:"cacheHit,omitempty"`
	ActualSeconds  float64 `json:"actualSeconds,omitempty"`
	DecisionNanos  int64   `json:"decisionNanos,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// DecideResponseV2 is the served /v2 decision: the ranked verdict over
// the full target registry. Verdict is the policy-chosen target's
// registry ID (top-1 of the constrained ranking; "split" for a
// cooperative split); Candidates every registered target ascending by
// calibrated predicted seconds, carrying both the raw model output
// (predSeconds) and the calibration-adjusted value the ranking used
// (calSeconds). Error is set for per-item failures inside a batch.
type DecideResponseV2 struct {
	Region string `json:"region"`
	// Verdict is the chosen target's registry ID; Kind its legacy
	// classification ("cpu"/"gpu"/"split").
	Verdict       string              `json:"verdict,omitempty"`
	Kind          string              `json:"kind,omitempty"`
	Policy        string              `json:"policy,omitempty"`
	Candidates    []offload.Candidate `json:"candidates,omitempty"`
	SplitFraction float64             `json:"splitFraction,omitempty"`
	CacheHit      bool                `json:"cacheHit,omitempty"`
	// Provenance records which correction stage produced the ranking:
	// "analytical" (models + EWMA calibration) or "learned" (a confident
	// learned residual correction).
	Provenance    string     `json:"provenance,omitempty"`
	ActualSeconds float64    `json:"actualSeconds,omitempty"`
	DecisionNanos int64      `json:"decisionNanos,omitempty"`
	Error         *ErrorInfo `json:"error,omitempty"`
}

// decideBody accepts both shapes: a single request object, or
// {"requests": [...]} for a batch.
type decideBody struct {
	DecideRequest
	Requests []DecideRequest `json:"requests"`
}

// BatchResponse is the body of a batched /v1 decide call. Coalesced
// counts duplicate (region, bindings, execute) items served from one
// decision.
type BatchResponse struct {
	Results   []DecideResponse `json:"results"`
	Coalesced int              `json:"coalesced"`
}

// BatchResponseV2 is the body of a batched /v2 decide call.
type BatchResponseV2 struct {
	Results   []DecideResponseV2 `json:"results"`
	Coalesced int                `json:"coalesced"`
}

// deprecated marks a frozen endpoint superseded by a /v2 successor:
// RFC 9745 Deprecation plus a successor-version Link. Headers only — the
// response body stays byte-identical for existing clients.
func (s *Server) deprecated(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</v2/decide>; rel="successor-version"`)
		h(w, r)
	}
}

// parseDecide reads and decodes a decide body, writing the error
// response itself when the body is unusable.
func (s *Server) parseDecide(w http.ResponseWriter, r *http.Request) (*decideBody, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: "+err.Error())
		return nil, false
	}
	var req decideBody
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, "parse body: "+err.Error())
		return nil, false
	}
	if req.Requests != nil && len(req.Requests) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch))
		return nil, false
	}
	return &req, true
}

func (s *Server) handleDecideV1(w http.ResponseWriter, r *http.Request) {
	req, ok := s.parseDecide(w, r)
	if !ok {
		return
	}
	if req.Requests == nil {
		out, ei := s.decideOne(r.Context(), req.DecideRequest)
		if ei != nil {
			httpError(w, ei.status, ei.Code, ei.Message)
			return
		}
		writeJSON(w, http.StatusOK, v1Response(req.Region, out))
		return
	}
	results := make([]DecideResponse, len(req.Requests))
	coalesced := decideBatch(s, r.Context(), req.Requests, results,
		func(req DecideRequest, out *offload.Outcome, ei *ErrorInfo) DecideResponse {
			if ei != nil {
				return DecideResponse{Region: req.Region, Error: ei.Message}
			}
			return v1Response(req.Region, out)
		},
		func(resp DecideResponse) DecideResponse {
			// The duplicate was answered by the first item's decision.
			resp.CacheHit = resp.Error == ""
			return resp
		})
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, Coalesced: coalesced})
}

func (s *Server) handleDecideV2(w http.ResponseWriter, r *http.Request) {
	// Content negotiation: a Content-Type of wire.ContentType switches
	// the whole exchange to the compact binary framing; anything else
	// stays on the default JSON path. /v1 never negotiates.
	if wire.IsFrameContent(r.Header.Get("Content-Type")) {
		s.handleDecideWire(w, r)
		return
	}
	req, ok := s.parseDecide(w, r)
	if !ok {
		return
	}
	if req.Requests == nil {
		out, ei := s.decideOne(r.Context(), req.DecideRequest)
		if ei != nil {
			httpError(w, ei.status, ei.Code, ei.Message)
			return
		}
		writeJSON(w, http.StatusOK, v2Response(req.Region, out))
		return
	}
	results := make([]DecideResponseV2, len(req.Requests))
	coalesced := decideBatch(s, r.Context(), req.Requests, results,
		func(req DecideRequest, out *offload.Outcome, ei *ErrorInfo) DecideResponseV2 {
			if ei != nil {
				return DecideResponseV2{Region: req.Region, Error: ei}
			}
			return v2Response(req.Region, out)
		},
		func(resp DecideResponseV2) DecideResponseV2 {
			resp.CacheHit = resp.Error == nil
			return resp
		})
	writeJSON(w, http.StatusOK, BatchResponseV2{Results: results, Coalesced: coalesced})
}

// v1Response projects an outcome onto the frozen /v1 shape.
func v1Response(region string, out *offload.Outcome) DecideResponse {
	return DecideResponse{
		Region:         region,
		Target:         out.Target.String(),
		PredCPUSeconds: out.PredCPUSeconds,
		PredGPUSeconds: out.PredGPUSeconds,
		SplitFraction:  out.SplitFraction,
		CacheHit:       out.CacheHit,
		ActualSeconds:  out.ActualSeconds,
		DecisionNanos:  out.DecisionOverhead.Nanoseconds(),
	}
}

// v2Response projects an outcome onto the ranked /v2 shape.
func v2Response(region string, out *offload.Outcome) DecideResponseV2 {
	return DecideResponseV2{
		Region:        region,
		Verdict:       out.TargetID,
		Kind:          out.Target.String(),
		Policy:        out.Policy.Name(),
		Candidates:    out.Candidates,
		SplitFraction: out.SplitFraction,
		CacheHit:      out.CacheHit,
		Provenance:    out.Provenance,
		ActualSeconds: out.ActualSeconds,
		DecisionNanos: out.DecisionOverhead.Nanoseconds(),
	}
}

// decideOne serves a single decision; a non-nil *ErrorInfo describes the
// failure with its classification and HTTP status.
func (s *Server) decideOne(ctx context.Context, req DecideRequest) (*offload.Outcome, *ErrorInfo) {
	if req.Region == "" {
		return nil, errInfo(http.StatusBadRequest, ErrCodeBadRequest, "missing region")
	}
	if err := ctx.Err(); err != nil {
		return nil, errInfo(http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, "deadline exceeded")
	}
	region, err := s.rt.Region(req.Region)
	if err != nil {
		return nil, classify(err)
	}
	b := symbolic.Bindings(req.Bindings)
	var out *offload.Outcome
	if req.Execute {
		out, err = region.Launch(b)
	} else {
		out, err = region.Decide(b)
	}
	if err != nil {
		return nil, classify(err)
	}
	return out, nil
}

// decideBatch serves a batch, coalescing duplicate (region, bindings,
// execute) items: each distinct key is decided once — and every decide
// after the first for a key is itself a decision-cache hit, so a batch
// of identical requests costs one model evaluation at most. project
// renders one decision; dup marks a coalesced duplicate's response.
func decideBatch[R any](s *Server, ctx context.Context, reqs []DecideRequest, results []R,
	project func(DecideRequest, *offload.Outcome, *ErrorInfo) R, dup func(R) R) int {
	byKey := map[string]int{}
	coalesced := 0
	for i, req := range reqs {
		key := req.Region + "\x00" + attrdb.BindingsKey(symbolic.Bindings(req.Bindings))
		if req.Execute {
			key += "\x00x"
		}
		if first, ok := byKey[key]; ok {
			results[i] = dup(results[first])
			coalesced++
			continue
		}
		out, ei := s.decideOne(ctx, req)
		byKey[key] = i
		results[i] = project(req, out, ei)
	}
	return coalesced
}

// -------------------------------------------------------------- errors --

// Error codes carried by the unified error envelope. Clients classify on
// these instead of parsing messages.
const (
	ErrCodeBadRequest       = "bad_request"
	ErrCodeUnknownRegion    = "unknown_region"
	ErrCodeUnboundSymbol    = "unbound_symbol"
	ErrCodeDeadlineExceeded = "deadline_exceeded"
	ErrCodeQueueFull        = "queue_full"
	ErrCodeDraining         = "draining"
	ErrCodeBatchTooLarge    = "batch_too_large"
	ErrCodeNotFound         = "not_found"
	ErrCodeInternal         = "internal"
)

// ErrorInfo is the unified error body: a machine-classifiable code, a
// human-readable message, and — on transient rejections — the same
// retry hint the Retry-After header carries, in (possibly fractional)
// seconds. RetryAfter is a float so a sub-second header hint like "0.5"
// survives into the envelope instead of silently vanishing; integral
// hints still encode as bare integers ("retry_after":1), so /v1 bodies
// are byte-identical to the historical int field.
type ErrorInfo struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after,omitempty"`

	// status is the HTTP status the error maps to (not serialized; the
	// envelope is self-describing through Code).
	status int `json:"-"`
}

// ErrorEnvelope wraps every non-2xx response body.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

func errInfo(status int, code, msg string) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: msg, status: status}
}

// ClassifyError maps a runtime error onto the envelope entry the daemon
// would serve for it. Exported so a degraded client (serving verdicts
// from its in-process fallback runtime) reports item-level failures with
// exactly the daemon's error codes.
func ClassifyError(err error) *ErrorInfo { return classify(err) }

// classify maps a runtime error onto its envelope entry via the
// runtime's sentinel errors.
func classify(err error) *ErrorInfo {
	switch {
	case errors.Is(err, offload.ErrUnknownRegion):
		return errInfo(http.StatusNotFound, ErrCodeUnknownRegion, err.Error())
	case errors.Is(err, offload.ErrUnboundSymbol):
		return errInfo(http.StatusUnprocessableEntity, ErrCodeUnboundSymbol, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return errInfo(http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, err.Error())
	default:
		return errInfo(http.StatusInternalServerError, ErrCodeInternal, err.Error())
	}
}

// ------------------------------------------------------------- regions --

// RegionInfo is one entry of the /v1/regions listing.
type RegionInfo struct {
	Name   string   `json:"name"`
	Params []string `json:"params"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	names := s.rt.Regions()
	infos := make([]RegionInfo, 0, len(names))
	for _, name := range names {
		info := RegionInfo{Name: name}
		if ra, err := s.rt.DB().Get(name); err == nil {
			info.Params = ra.Params
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// ------------------------------------------------------------- targets --

// TargetInfo is one entry of the /v1/targets listing: a registered
// execution target as the ranking sees it, in registry (tie-break)
// order.
type TargetInfo struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Device names the underlying machine descriptor (CPU or GPU model
	// name); Threads is the OMP team size for CPU-kind targets.
	Device  string `json:"device,omitempty"`
	Threads int    `json:"threads,omitempty"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	reg := s.rt.Targets()
	infos := make([]TargetInfo, 0, reg.Len())
	for i := 0; i < reg.Len(); i++ {
		sp := reg.At(i)
		info := TargetInfo{ID: sp.ID, Kind: sp.Kind.String()}
		switch sp.Kind {
		case offload.KindCPU:
			info.Device = sp.CPU.Name
			info.Threads = sp.Threads
		case offload.KindGPU:
			info.Device = sp.GPU.Name
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// --------------------------------------------------------------- audit --

// handleAudit serves the shadow auditor's accuracy report: per-region
// mispredict counts, decision regret, signed log-error summaries and the
// live correction factors. 404 when the daemon runs without an auditor.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Auditor == nil {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, "auditing disabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Auditor.Report())
}

// --------------------------------------------------------------- learn --

// handleLearn serves the residual learner's inspectable state: every
// per-(region, target) and global model's sample count, gate status and
// solved weights, plus the verdict counters. 404 when the daemon runs
// without a learner.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Learner == nil {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, "learning disabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Learner.State())
}

// ------------------------------------------------------------- metrics --

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.rt.Metrics()
	var rep audit.Report
	if s.cfg.Auditor != nil {
		rep = s.cfg.Auditor.Report()
		m = rep.AddTo(m)
	}
	if err := offload.WritePrometheus(w, m); err != nil {
		return
	}
	if s.cfg.Auditor != nil {
		if err := offload.WriteAccuracyPrometheus(w, rep.Accuracy()); err != nil {
			return
		}
	}
	if s.cfg.Learner != nil {
		if err := offload.WriteLearnerPrometheus(w, s.cfg.Learner.Stats()); err != nil {
			return
		}
	}
	if s.cfg.Cluster != nil {
		if err := s.cfg.Cluster.Status().WritePrometheus(w); err != nil {
			return
		}
	}
	s.met.write(w, s)
}

// ------------------------------------------------------------- cluster --

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Cluster.Status())
}

// ------------------------------------------------------------- healthz --

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"regions":       len(s.rt.Regions()),
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	})
}

// ------------------------------------------------------------- helpers --

// encodeBufs pools response-encoding buffers so the steady-state decide
// path does not allocate a fresh buffer (and its growth doublings) per
// response. Buffers that ballooned on a large response (a full region
// listing, a big batch) are dropped rather than pinned in the pool.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledEncodeBuf = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Can only happen for unmarshalable values — a programming error,
		// but the non-2xx contract still holds: every error body is the
		// structured envelope, so route through httpError. If the value
		// that failed to encode was itself an envelope, emit a constant
		// one instead of recursing.
		encodeBufs.Put(buf)
		if _, isEnvelope := v.(ErrorEnvelope); isEnvelope {
			const body = `{"error":{"code":"internal","message":"response encoding failed"}}` + "\n"
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, body)
			return
		}
		httpError(w, http.StatusInternalServerError, ErrCodeInternal,
			"response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Buffering the encode is what makes an exact Content-Length possible,
	// which keeps keep-alive connections reusable without chunked framing.
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledEncodeBuf {
		encodeBufs.Put(buf)
	}
}

func httpError(w http.ResponseWriter, status int, code, msg string) {
	ei := ErrorInfo{Code: code, Message: msg, RetryAfter: retryHint(w, status)}
	writeJSON(w, status, ErrorEnvelope{Error: ei})
}

// retryHint applies the transient-rejection Retry-After convention:
// sheds and unavailability (429/503) advertise when to come back, so
// well-behaved clients pace their retries instead of hammering an
// overloaded or draining instance. The hint rides in both the header
// and the body; the returned value mirrors the header verbatim as
// seconds, so a fractional hint like "0.5" set by a fault layer or
// sidecar survives into the envelope instead of being dropped by
// integer parsing (header and body must never disagree).
func retryHint(w http.ResponseWriter, status int) float64 {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return 0
	}
	if w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	ra, err := strconv.ParseFloat(w.Header().Get("Retry-After"), 64)
	if err != nil || ra < 0 {
		return 0
	}
	return ra
}
