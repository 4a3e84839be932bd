package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the server's one decide core and the binary face of
// POST /v2/decide. Every codec — JSON bodies (converted to the named
// wire form on decode), frame bodies, stream connections and the
// client's in-process fallback (DecideLocal) — decides through decide,
// coalesces batches through decideBatch and renders /v2 responses
// through projectWireInto, so their semantics are identical by
// construction (pinned by TestWireMatchesJSON and
// TestWireBatchMatchesJSON). Envelope errors raised before negotiation
// (admission shedding, drain) still arrive as JSON; everything after
// the Content-Type check answers in frames.

// handleDecideWire serves a body of one or more request frames. A body
// holding exactly one TypeRequest frame mirrors the single-object JSON
// body: semantic failures surface as HTTP statuses with a TypeError
// frame. Any other mix (pipelined requests, batch frames) answers HTTP
// 200 with matching response frames in order, per-item failures riding
// inside them — the frame analogue of the JSON batch contract.
//
// The single-frame case is the hot path and stays allocation-lean: the
// body reads into a pooled buffer, exactly one frame decodes (no frame
// slice), and the response encodes into the same scratch with its
// candidate slice recycled across requests.
func (s *Server) handleDecideWire(w http.ResponseWriter, r *http.Request) {
	sc := wireScratches.Get().(*wireScratch)
	defer putWireScratch(sc)
	body, err := appendBody(sc.body[:0], w, r)
	sc.body = body
	if err != nil {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) == 0 {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: empty body")
		return
	}
	first, n, err := wire.DecodeFrame(body)
	if err != nil {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: "+err.Error())
		return
	}

	if n == len(body) && first.Type == wire.TypeRequest {
		out, ei := decide(r.Context(), s.rt, first.Req)
		if ei != nil {
			wireError(w, ei.status, ei.Code, ei.Message)
			return
		}
		resp := projectWireInto(first.Req.Region, out, nil, sc.cands[:0])
		sc.enc = wire.AppendResponse(sc.enc[:0], &resp)
		sc.cands = resp.Candidates[:0]
		writeFrames(w, http.StatusOK, sc.enc)
		return
	}

	frames := []*wire.Frame{first}
	for rest := body[n:]; len(rest) > 0; {
		fr, adv, err := wire.DecodeFrame(rest)
		if err != nil {
			wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: "+err.Error())
			return
		}
		frames = append(frames, fr)
		rest = rest[adv:]
	}
	for _, fr := range frames {
		switch fr.Type {
		case wire.TypeRequest:
		case wire.TypeBatchRequest:
			if len(fr.Reqs) > s.cfg.MaxBatch {
				wireError(w, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge,
					fmt.Sprintf("batch of %d exceeds limit %d", len(fr.Reqs), s.cfg.MaxBatch))
				return
			}
		default:
			wireError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("unexpected frame type %d in request body", fr.Type))
			return
		}
	}

	b := sc.enc[:0]
	for _, fr := range frames {
		if fr.Type == wire.TypeRequest {
			out, ei := decide(r.Context(), s.rt, fr.Req)
			resp := projectWire(fr.Req.Region, out, ei)
			b = wire.AppendResponse(b, &resp)
			continue
		}
		results := make([]wire.Response, len(fr.Reqs))
		coalesced := decideBatch(r.Context(), s.rt, fr.Reqs, results, projectWire,
			func(resp wire.Response) wire.Response {
				resp.CacheHit = resp.Err == nil
				return resp
			})
		b = wire.AppendBatchResponse(b, coalesced, results)
	}
	sc.enc = b
	writeFrames(w, http.StatusOK, b)
}

// appendBody reads the request body into dst (pre-sizing from
// Content-Length when the client declared one), enforcing the same 16MB
// cap as the JSON path.
func appendBody(dst []byte, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, 16<<20)
	if n := r.ContentLength; n > 0 && n <= 16<<20 && int64(cap(dst)) < n {
		dst = append(make([]byte, 0, int(n)), dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decide is the server's one decision core: it resolves a wire request
// against rt and runs it, returning the outcome or the failure with its
// classification and HTTP status. Slot-form bindings skip the map
// entirely on the decide path: after verifying the key hash (an
// end-to-end checksum of the client's idea of the region's parameter
// set), the values drop straight into the region's pooled slot vectors
// via DecideVals. Named bindings resolve through a map.
func decide(ctx context.Context, rt *offload.Runtime, req *wire.Request) (*offload.Outcome, *ErrorInfo) {
	if req.Region == "" {
		return nil, errInfo(http.StatusBadRequest, ErrCodeBadRequest, "missing region")
	}
	if err := ctx.Err(); err != nil {
		return nil, errInfo(http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, "deadline exceeded")
	}
	region, err := rt.Region(req.Region)
	if err != nil {
		return nil, classify(err)
	}
	if req.SlotForm {
		names := region.ParamNames()
		if len(req.Values) != len(names) {
			return nil, errInfo(http.StatusUnprocessableEntity, ErrCodeUnboundSymbol,
				fmt.Sprintf("offload: unbound symbol: region %s wants %d parameters, got %d slot values",
					req.Region, len(names), len(req.Values)))
		}
		if got := region.KeyHashVals(req.Values); got != req.KeyHash {
			return nil, errInfo(http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("slot vector key hash %#x does not match region layout (%#x): client and server disagree on %s's parameter set",
					req.KeyHash, got, req.Region))
		}
		if !req.Execute {
			out, err := region.DecideVals(req.Values)
			if err != nil {
				return nil, classify(err)
			}
			return out, nil
		}
		// Execution still wants the map form (Launch logs bindings).
		b := make(symbolic.Bindings, len(names))
		for i, name := range names {
			b[name] = req.Values[i]
		}
		out, err := region.Launch(b)
		if err != nil {
			return nil, classify(err)
		}
		return out, nil
	}
	b := make(symbolic.Bindings, len(req.Values))
	for i, name := range req.Names {
		b[name] = req.Values[i]
	}
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
// renders one decision in the codec's shape; dup marks a copy of the
// first item's response as a coalesced duplicate's.
func decideBatch[R any](ctx context.Context, rt *offload.Runtime, reqs []wire.Request, results []R,
	project func(string, *offload.Outcome, *ErrorInfo) R, dup func(R) R) int {
	byKey := map[string]int{}
	coalesced := 0
	var keyBuf []byte
	for i := range reqs {
		keyBuf = wireCoalesceKey(keyBuf[:0], &reqs[i])
		if first, ok := byKey[string(keyBuf)]; ok {
			results[i] = dup(results[first])
			coalesced++
			continue
		}
		out, ei := decide(ctx, rt, &reqs[i])
		byKey[string(keyBuf)] = i
		results[i] = project(reqs[i].Region, out, ei)
	}
	return coalesced
}

// wireCoalesceKey builds the duplicate-detection key for one request.
// Slot-form values are already canonical (sorted-name order), so their
// raw encoding is the key; named form canonicalizes through
// attrdb.BindingsKey.
func wireCoalesceKey(dst []byte, req *wire.Request) []byte {
	dst = append(dst, req.Region...)
	dst = append(dst, 0)
	if req.Execute {
		dst = append(dst, 'x')
	}
	dst = append(dst, 0)
	if req.SlotForm {
		dst = append(dst, 's')
		for _, v := range req.Values {
			dst = binary.AppendVarint(dst, v)
		}
		return dst
	}
	b := make(symbolic.Bindings, len(req.Values))
	for i, name := range req.Names {
		b[name] = req.Values[i]
	}
	return append(dst, attrdb.BindingsKey(b)...)
}

// projectWire renders one outcome (or per-item failure) as a response
// payload: the neutral /v2 projection (projectV2 and ResponseV2FromWire
// carry it onto the JSON shape).
func projectWire(region string, out *offload.Outcome, ei *ErrorInfo) wire.Response {
	return projectWireInto(region, out, ei, nil)
}

// projectWireInto is projectWire with a caller-recycled candidate
// slice: hot paths (single-frame HTTP, stream workers) hand back the
// previous response's slice so steady state does not allocate one per
// decision. The returned Response aliases cands.
func projectWireInto(region string, out *offload.Outcome, ei *ErrorInfo, cands []wire.Candidate) wire.Response {
	if ei != nil {
		return wire.Response{Region: region, Err: &wire.Error{
			Code: ei.Code, Message: ei.Message, RetryAfterSeconds: ei.RetryAfter,
		}}
	}
	d := &out.Decision
	resp := wire.Response{
		Region:        region,
		Verdict:       d.TargetID,
		Kind:          d.Target.String(),
		Policy:        d.Policy.Name(),
		Provenance:    d.Provenance,
		SplitFraction: d.SplitFraction,
		CacheHit:      d.CacheHit,
		ActualSeconds: d.ActualSeconds,
		DecisionNanos: d.DecisionOverhead.Nanoseconds(),
	}
	if len(d.Candidates) > 0 {
		for i := range d.Candidates {
			c := &d.Candidates[i]
			cands = append(cands, wire.Candidate{
				Target:      c.Target,
				Kind:        c.Kind.String(),
				PredSeconds: c.PredSeconds,
				CalSeconds:  c.CalSeconds,
			})
		}
		resp.Candidates = cands
	}
	return resp
}

// ResponseV2FromWire carries a response frame onto the JSON /v2 shape.
// It is the one place the neutral projection becomes a
// DecideResponseV2: the server's JSON encoder and the client's frame
// decoding both go through it, so callers see one Verdict shape
// regardless of encoding.
func ResponseV2FromWire(wr *wire.Response) DecideResponseV2 {
	resp := DecideResponseV2{
		Region:        wr.Region,
		Verdict:       wr.Verdict,
		Kind:          wr.Kind,
		Policy:        wr.Policy,
		Provenance:    wr.Provenance,
		SplitFraction: wr.SplitFraction,
		CacheHit:      wr.CacheHit,
		ActualSeconds: wr.ActualSeconds,
		DecisionNanos: wr.DecisionNanos,
	}
	if wr.Err != nil {
		resp.Error = &ErrorInfo{
			Code:       wr.Err.Code,
			Message:    wr.Err.Message,
			RetryAfter: wr.Err.RetryAfterSeconds,
		}
		return resp
	}
	if n := len(wr.Candidates); n > 0 {
		resp.Candidates = make([]offload.Candidate, n)
		for i := range wr.Candidates {
			wc := &wr.Candidates[i]
			kind := offload.KindCPU
			if wc.Kind == offload.KindGPU.String() {
				kind = offload.KindGPU
			}
			resp.Candidates[i] = offload.Candidate{
				Target:      wc.Target,
				Kind:        kind,
				PredSeconds: wc.PredSeconds,
				CalSeconds:  wc.CalSeconds,
			}
		}
	}
	return resp
}

// frameBufs pools response frame buffers, the binary analogue of
// encodeBufs: steady-state responses encode into a recycled slice and
// ship with an exact Content-Length.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

func putFrameBuf(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledEncodeBuf {
		*buf = b[:0]
		frameBufs.Put(buf)
	}
}

// wireScratch is the per-request working set of the binary decide
// path: body read buffer, response encode buffer, and the candidate
// slice recycled between single-frame responses.
type wireScratch struct {
	body  []byte
	enc   []byte
	cands []wire.Candidate
}

var wireScratches = sync.Pool{New: func() any {
	return &wireScratch{
		body: make([]byte, 0, 2048),
		enc:  make([]byte, 0, 2048),
	}
}}

func putWireScratch(sc *wireScratch) {
	if cap(sc.body) > maxPooledEncodeBuf || cap(sc.enc) > maxPooledEncodeBuf {
		return
	}
	wireScratches.Put(sc)
}

func writeFrames(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// wireError is httpError in frames: the same status, stable code and
// Retry-After conventions, delivered as a TypeError frame.
func wireError(w http.ResponseWriter, status int, code, msg string) {
	e := wire.Error{Status: status, Code: code, Message: msg, RetryAfterSeconds: retryHint(w, status)}
	buf := frameBufs.Get().(*[]byte)
	b := wire.AppendError((*buf)[:0], &e)
	writeFrames(w, status, b)
	putFrameBuf(buf, b)
}
