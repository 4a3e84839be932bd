package client

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the client half of the binary frame protocol
// (internal/wire). Binary mode changes only the encoding of /v2/decide
// traffic: every request still flows through the same coalescing,
// batching, breaker, retry, hedging and fallback machinery, and
// frame-level errors classify exactly like JSON envelope codes. If the
// peer turns out not to speak frames, the client downgrades to JSON
// once, stickily, and the attempt retries — negotiation never costs a
// verdict.

// request is one decide request canonicalised once per call: its
// binding names in sorted order, their values, and the coalescing key.
// Coalescing, both frame forms and the slot form's key hash all read
// these instead of re-sorting the bindings.
type request struct {
	server.DecideRequest
	names  []string // binding names, sorted
	values []int64  // values[i] binds names[i]
	// key is the coalescing key: region, NUL, attrdb.BindingsKey of the
	// bindings, and NUL x for Execute requests (they never coalesce with
	// decide-only ones). bindingsKey is its BindingsKey part.
	key         string
	bindingsKey string
}

func prepare(req server.DecideRequest) request {
	r := request{DecideRequest: req}
	if n := len(req.Bindings); n > 0 {
		r.names = make([]string, 0, n)
		for name := range req.Bindings {
			r.names = append(r.names, name)
		}
		slices.Sort(r.names)
		r.values = make([]int64, n)
		for i, name := range r.names {
			r.values[i] = req.Bindings[name]
		}
	}
	var stack [128]byte
	buf := append(stack[:0], req.Region...)
	buf = append(buf, 0)
	buf = attrdb.AppendSortedKey(buf, r.names, r.values)
	end := len(buf)
	if req.Execute {
		buf = append(buf, 0, 'x')
	}
	r.key = string(buf)
	r.bindingsKey = r.key[len(req.Region)+1 : end]
	return r
}

// payload is one logical call, prepared once and shared by every retry
// and hedge of it. Each HTTP body is encoded at most once, on first use
// by an attempt that sends it; a stream attempt encodes wreq straight
// into its connection's buffer and needs neither body.
type payload struct {
	one  request   // single calls
	many []request // batch calls: the distinct items
	// batch records which frame type a 200 must carry.
	batch bool
	// stream routes attempts onto the stream transport first
	// (decide-only singles with streaming on). frames sends HTTP
	// attempts as frame bodies unless the peer has since been demoted
	// to JSON.
	stream, frames bool
	wreq           wire.Request   // frame form of one
	wreqs          []wire.Request // frame forms of many

	jsonOnce sync.Once
	json     []byte
	jsonErr  error
	wireOnce sync.Once
	wire     []byte
}

// newPayload prepares a single call.
func (c *Client) newPayload(req server.DecideRequest) *payload {
	p := &payload{one: prepare(req), frames: c.wireEnabled()}
	p.stream = !req.Execute && c.streamEnabled()
	if p.stream || p.frames {
		p.wreq = c.toWireRequest(&p.one)
	}
	return p
}

// newBatchPayload prepares a batch call over its distinct items.
func (c *Client) newBatchPayload(many []request) *payload {
	p := &payload{many: many, batch: true, frames: c.wireEnabled()}
	if p.frames {
		p.wreqs = make([]wire.Request, len(many))
		for i := range many {
			p.wreqs[i] = c.toWireRequest(&many[i])
		}
	}
	return p
}

// jsonBody returns the call's JSON body, encoding it on first use.
func (p *payload) jsonBody() ([]byte, error) {
	p.jsonOnce.Do(func() {
		if !p.batch {
			p.json, p.jsonErr = json.Marshal(p.one.DecideRequest)
			return
		}
		reqs := make([]server.DecideRequest, len(p.many))
		for i := range p.many {
			reqs[i] = p.many[i].DecideRequest
		}
		p.json, p.jsonErr = json.Marshal(struct {
			Requests []server.DecideRequest `json:"requests"`
		}{reqs})
	})
	return p.json, p.jsonErr
}

// wireBody returns the call's frame body, encoding it on first use.
// Only calls prepared with frames on have one.
func (p *payload) wireBody() []byte {
	p.wireOnce.Do(func() {
		if p.batch {
			p.wire = wire.AppendBatchRequest(nil, p.wreqs)
		} else {
			p.wire = wire.AppendRequest(nil, &p.wreq)
		}
	})
	return p.wire
}

// rtResult is one successful round trip: the raw body for a JSON
// attempt, the decoded frame for a binary or stream one (exactly one of
// the two is set). transport tags which path served it.
type rtResult struct {
	data      []byte
	frame     *wire.Frame
	transport string
}

// wireEnabled reports whether the next request should carry a frame
// encoding alongside JSON.
func (c *Client) wireEnabled() bool {
	return c.cfg.Binary && !c.wireDown.Load()
}

// downgradeWire latches the sticky JSON downgrade, counting the first
// flip only (concurrent attempts may all hit the same broken peer).
func (c *Client) downgradeWire() {
	if c.wireDown.CompareAndSwap(false, true) {
		c.met.wireDowngrades.Add(1)
	}
}

// toWireRequest projects a prepared request onto the frame format.
// When the RegionParams hook confirms the binding names are exactly the
// region's parameter set, the request rides the slot form — values in
// canonical order plus a key hash the daemon verifies before dropping
// them into its pooled slot vectors. Otherwise the frame carries named
// bindings, which the daemon resolves like a JSON map. The frame shares
// r's name and value slices.
func (c *Client) toWireRequest(r *request) wire.Request {
	wr := wire.Request{Region: r.Region, Execute: r.Execute, Values: r.values}
	if c.cfg.RegionParams != nil && len(r.names) > 0 {
		if params := c.cfg.RegionParams(r.Region); slices.Equal(params, r.names) {
			wr.SlotForm = true
			wr.KeyHash = attrdb.KeyHash(r.bindingsKey)
			return wr
		}
	}
	wr.Names = r.names
	return wr
}

// decodeWireOK decodes a 200 body answering a frame request. Anything
// other than exactly the expected frame shape means the peer is not
// actually speaking the protocol (a rewriting proxy, or a body produced
// by something older): downgrade stickily and retry as JSON. The
// breaker does not count it — the response arrived fine, it just wasn't
// frames.
func (c *Client) decodeWireOK(p *payload, data []byte, ct string) (*wire.Frame, *callErr) {
	fail := func(why string) (*wire.Frame, *callErr) {
		c.downgradeWire()
		return nil, &callErr{
			err:       fmt.Errorf("client: frame response: %s (downgrading to JSON)", why),
			retryable: true,
		}
	}
	if !wire.IsFrameContent(ct) {
		return fail("unexpected Content-Type " + ct)
	}
	frames, err := wire.DecodeAll(data)
	if err != nil {
		return fail(err.Error())
	}
	if len(frames) != 1 {
		return fail(fmt.Sprintf("%d frames in a single-call response", len(frames)))
	}
	var want byte = wire.TypeResponse
	if p.batch {
		want = wire.TypeBatchResponse
	}
	if frames[0].Type != want {
		return fail(fmt.Sprintf("frame type %d, want %d", frames[0].Type, want))
	}
	return frames[0], nil
}

// parseWireErrBody extracts the daemon's error from a non-2xx frame
// body — the binary analogue of parseErrBody over the JSON envelope.
func parseWireErrBody(data []byte) (remoteErr, bool) {
	frames, err := wire.DecodeAll(data)
	if err != nil || len(frames) != 1 || frames[0].Type != wire.TypeError {
		return remoteErr{}, false
	}
	e := frames[0].Err
	return remoteErr{
		code:       e.Code,
		msg:        e.Message,
		retryAfter: time.Duration(e.RetryAfterSeconds * float64(time.Second)),
	}, true
}
