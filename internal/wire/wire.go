// Package wire defines the compact binary framing for decide traffic.
//
// With compiled Predict at ~745ns and decision-cache hits at ~100ns,
// JSON encode/decode and per-request HTTP framing dominate per-decision
// service cost. This package replaces the JSON bodies on POST /v2/decide
// with length-prefixed, versioned frames whose request payloads are
// slot-vector-shaped: values in the region's canonical (sorted-name)
// parameter order plus the attrdb key hash, so the server can copy them
// straight into the pooled slot vectors without building a bindings map.
//
// Frame layout (all multi-byte header fields little-endian):
//
//	offset  size  field
//	0       2     magic "HS"
//	2       1     version (currently 1)
//	3       1     frame type (TypeRequest..TypeError)
//	4       4     payload length (uint32)
//	8       n     payload
//
// A request or response body is one or more frames back to back
// (pipelining): the server answers each request frame with a matching
// response frame in order. Payload scalars are varints
// (binary.AppendUvarint / AppendVarint), float64s are 8-byte
// little-endian IEEE 754 bit patterns, and strings are uvarint length
// prefixes followed by UTF-8 bytes.
//
// Content negotiation: a client opts in by sending Content-Type
// ContentType; JSON remains the default and /v1 is unversioned-frozen.
// Responses to frame requests carry ContentType too. Error responses at
// the HTTP layer are TypeError frames mirroring the JSON error envelope
// (same stable codes, Retry-After carried as float seconds); errors
// raised before content negotiation (admission shedding, drain) still
// arrive as JSON envelopes, so binary clients must accept both.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// ContentType is the negotiated media type for binary decide frames.
const ContentType = "application/x-hybridsel-frame"

// IsFrameContent reports whether an HTTP Content-Type header value
// announces frame payloads. Media-type parameters after ';' are
// ignored; matching is case-insensitive per RFC 9110.
func IsFrameContent(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ContentType)
}

// Version is the frame format version emitted by this package. Decoders
// reject frames with a different version byte so format changes fail
// loudly instead of misparsing.
const Version = 1

// Frame types.
const (
	// TypeRequest carries a single decide request.
	TypeRequest = 1
	// TypeResponse carries a single decide response (or a per-request
	// error when its error bit is set).
	TypeResponse = 2
	// TypeBatchRequest carries a batch of decide requests that share
	// one admission slot, mirroring the JSON {"requests":[...]} form.
	TypeBatchRequest = 3
	// TypeBatchResponse answers a TypeBatchRequest: a coalesced count
	// followed by one response payload per request, in order.
	TypeBatchResponse = 4
	// TypeError carries a whole-exchange error, mirroring the JSON
	// {"error":{...}} envelope on a non-2xx status.
	TypeError = 5
)

// Magic bytes opening every frame.
const (
	magic0 = 'H'
	magic1 = 'S'
)

const headerLen = 8

// Decoder sanity caps. They bound single-allocation sizes against
// malformed input; semantic limits (server MaxBatch, binding counts)
// are enforced by the server with proper envelope codes.
const (
	maxStringLen = 1 << 20
	maxFrameLen  = 64 << 20
)

// Decode errors. All decoder failures wrap ErrMalformed; ErrVersion
// additionally tags version mismatches so callers can distinguish
// "speaks an unknown dialect" from "corrupt bytes".
var (
	ErrMalformed = errors.New("wire: malformed frame")
	ErrVersion   = fmt.Errorf("%w: version mismatch", ErrMalformed)
)

// Request is one decide request. Bindings travel in one of two shapes:
//
//   - Slot form (SlotForm true): Values holds the bindings in the
//     region's canonical parameter order — sorted binding names, the
//     same order attrdb.KeyLayout uses — and KeyHash holds
//     attrdb.BindingsHash of the bindings. The server verifies KeyHash
//     against its own layout hash of Values, which catches any
//     client/server disagreement about the region's parameter set, then
//     copies Values straight into a pooled slot vector.
//   - Named form (SlotForm false): Names[i] binds Values[i]. No layout
//     agreement required; the server builds a bindings map as it does
//     for JSON.
type Request struct {
	Region  string
	Execute bool

	SlotForm bool
	KeyHash  uint64   // slot form only
	Names    []string // named form only, len == len(Values)
	Values   []int64
}

// Candidate is one ranked target in a response, mirroring
// offload.Candidate's exported fields. Kind is the target-kind name
// ("cpu"/"gpu").
type Candidate struct {
	Target      string
	Kind        string
	PredSeconds float64
	CalSeconds  float64
}

// Response is one decide response, mirroring the JSON DecideResponseV2.
// When Err is non-nil the remaining fields (other than Region) are
// zero, exactly like a JSON batch item with an "error" member.
type Response struct {
	Region        string
	Verdict       string
	Kind          string
	Policy        string
	Provenance    string
	Candidates    []Candidate
	SplitFraction float64
	CacheHit      bool
	ActualSeconds float64
	DecisionNanos int64
	Err           *Error
}

// Error mirrors the JSON error envelope: a stable machine-readable
// code, a human message, and the Retry-After hint as float seconds
// (0 = no hint). Status is the HTTP status the error was served with;
// it is 0 on per-request errors inside a 200 batch response.
type Error struct {
	Status            int
	Code              string
	Message           string
	RetryAfterSeconds float64
}

// Frame is one decoded frame. Exactly the field matching Type is set;
// stream request/response frames additionally carry StreamID.
type Frame struct {
	Type byte

	Req       *Request   // TypeRequest, TypeStreamRequest
	Reqs      []Request  // TypeBatchRequest
	Resp      *Response  // TypeResponse, TypeStreamResponse
	Err       *Error     // TypeError
	Resps     []Response // TypeBatchResponse
	Coalesced int        // TypeBatchResponse

	StreamID uint64     // TypeStreamRequest, TypeStreamResponse
	Credit   uint64     // TypeCredit
	Away     *Goaway    // TypeGoaway
	Gossip   *GossipMsg // TypeGossip
}

// ---- Encoding ----

// beginFrame appends a frame header with a zero length and returns the
// offset of the length field for endFrame to patch.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, magic0, magic1, Version, typ)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, lenAt
}

func endFrame(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

const (
	reqFlagExecute  = 1 << 0
	reqFlagSlotForm = 1 << 1

	respFlagCacheHit = 1 << 0
	respFlagError    = 1 << 1
)

func appendRequestPayload(dst []byte, r *Request) []byte {
	var flags uint64
	if r.Execute {
		flags |= reqFlagExecute
	}
	if r.SlotForm {
		flags |= reqFlagSlotForm
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = appendString(dst, r.Region)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	if r.SlotForm {
		dst = binary.LittleEndian.AppendUint64(dst, r.KeyHash)
		for _, v := range r.Values {
			dst = binary.AppendVarint(dst, v)
		}
		return dst
	}
	for i, v := range r.Values {
		dst = appendString(dst, r.Names[i])
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func appendErrorPayload(dst []byte, e *Error) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.Status))
	dst = appendString(dst, e.Code)
	dst = appendString(dst, e.Message)
	return appendFloat(dst, e.RetryAfterSeconds)
}

func appendResponsePayload(dst []byte, r *Response) []byte {
	var flags uint64
	if r.CacheHit {
		flags |= respFlagCacheHit
	}
	if r.Err != nil {
		flags |= respFlagError
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = appendString(dst, r.Region)
	if r.Err != nil {
		return appendErrorPayload(dst, r.Err)
	}
	dst = appendString(dst, r.Verdict)
	dst = appendString(dst, r.Kind)
	dst = appendString(dst, r.Policy)
	dst = appendString(dst, r.Provenance)
	dst = appendFloat(dst, r.SplitFraction)
	dst = appendFloat(dst, r.ActualSeconds)
	dst = binary.AppendVarint(dst, r.DecisionNanos)
	dst = binary.AppendUvarint(dst, uint64(len(r.Candidates)))
	for i := range r.Candidates {
		c := &r.Candidates[i]
		dst = appendString(dst, c.Target)
		dst = appendString(dst, c.Kind)
		dst = appendFloat(dst, c.PredSeconds)
		dst = appendFloat(dst, c.CalSeconds)
	}
	return dst
}

// AppendRequest appends a complete TypeRequest frame.
func AppendRequest(dst []byte, r *Request) []byte {
	dst, at := beginFrame(dst, TypeRequest)
	dst = appendRequestPayload(dst, r)
	return endFrame(dst, at)
}

// AppendBatchRequest appends a complete TypeBatchRequest frame.
func AppendBatchRequest(dst []byte, reqs []Request) []byte {
	dst, at := beginFrame(dst, TypeBatchRequest)
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for i := range reqs {
		dst = appendRequestPayload(dst, &reqs[i])
	}
	return endFrame(dst, at)
}

// AppendResponse appends a complete TypeResponse frame.
func AppendResponse(dst []byte, r *Response) []byte {
	dst, at := beginFrame(dst, TypeResponse)
	dst = appendResponsePayload(dst, r)
	return endFrame(dst, at)
}

// AppendBatchResponse appends a complete TypeBatchResponse frame.
func AppendBatchResponse(dst []byte, coalesced int, resps []Response) []byte {
	dst, at := beginFrame(dst, TypeBatchResponse)
	dst = binary.AppendUvarint(dst, uint64(coalesced))
	dst = binary.AppendUvarint(dst, uint64(len(resps)))
	for i := range resps {
		dst = appendResponsePayload(dst, &resps[i])
	}
	return endFrame(dst, at)
}

// AppendError appends a complete TypeError frame.
func AppendError(dst []byte, e *Error) []byte {
	dst, at := beginFrame(dst, TypeError)
	dst = appendErrorPayload(dst, e)
	return endFrame(dst, at)
}

// ---- Decoding ----

// reader is a bounds-checked cursor over one frame payload. strs, when
// non-nil, is the owning StreamReader's intern table.
type reader struct {
	b    []byte
	i    int
	strs map[string]string
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrMalformed)
	}
	r.i += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrMalformed)
	}
	r.i += n
	return v, nil
}

func (r *reader) float() (float64, error) {
	if r.i+8 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated float", ErrMalformed)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.i+8 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated uint64", ErrMalformed)
	}
	v := binary.LittleEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || r.i+int(n) > len(r.b) {
		return "", fmt.Errorf("%w: string length %d out of range", ErrMalformed, n)
	}
	b := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	if r.strs == nil || len(b) > maxInternLen {
		return string(b), nil
	}
	if s, ok := r.strs[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if len(r.strs) < maxInterned {
		r.strs[s] = s
	}
	return s, nil
}

// count reads a collection length and sanity-checks it against the
// remaining payload: every element costs at least min bytes, so a count
// that could not possibly fit is rejected before allocating.
func (r *reader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if remain := len(r.b) - r.i; n > uint64(remain/min)+1 {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, n)
	}
	return int(n), nil
}

func (r *reader) done() error {
	if r.i != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(r.b)-r.i)
	}
	return nil
}

func decodeRequestPayload(r *reader) (*Request, error) {
	flags, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	req := &Request{
		Execute:  flags&reqFlagExecute != 0,
		SlotForm: flags&reqFlagSlotForm != 0,
	}
	if req.Region, err = r.string(); err != nil {
		return nil, err
	}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if req.SlotForm {
		if req.KeyHash, err = r.uint64(); err != nil {
			return nil, err
		}
		if n > 0 {
			req.Values = make([]int64, n)
		}
		for i := range req.Values {
			if req.Values[i], err = r.varint(); err != nil {
				return nil, err
			}
		}
		return req, nil
	}
	if n == 0 {
		return req, nil
	}
	req.Names = make([]string, n)
	req.Values = make([]int64, n)
	for i := range req.Values {
		if req.Names[i], err = r.string(); err != nil {
			return nil, err
		}
		if req.Values[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	return req, nil
}

func decodeErrorPayload(r *reader) (*Error, error) {
	status, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	e := &Error{Status: int(status)}
	if e.Code, err = r.string(); err != nil {
		return nil, err
	}
	if e.Message, err = r.string(); err != nil {
		return nil, err
	}
	if e.RetryAfterSeconds, err = r.float(); err != nil {
		return nil, err
	}
	return e, nil
}

func decodeResponsePayload(r *reader) (*Response, error) {
	flags, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	resp := &Response{CacheHit: flags&respFlagCacheHit != 0}
	if resp.Region, err = r.string(); err != nil {
		return nil, err
	}
	if flags&respFlagError != 0 {
		if resp.Err, err = decodeErrorPayload(r); err != nil {
			return nil, err
		}
		return resp, nil
	}
	if resp.Verdict, err = r.string(); err != nil {
		return nil, err
	}
	if resp.Kind, err = r.string(); err != nil {
		return nil, err
	}
	if resp.Policy, err = r.string(); err != nil {
		return nil, err
	}
	if resp.Provenance, err = r.string(); err != nil {
		return nil, err
	}
	if resp.SplitFraction, err = r.float(); err != nil {
		return nil, err
	}
	if resp.ActualSeconds, err = r.float(); err != nil {
		return nil, err
	}
	if resp.DecisionNanos, err = r.varint(); err != nil {
		return nil, err
	}
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		resp.Candidates = make([]Candidate, n)
	}
	for i := range resp.Candidates {
		c := &resp.Candidates[i]
		if c.Target, err = r.string(); err != nil {
			return nil, err
		}
		if c.Kind, err = r.string(); err != nil {
			return nil, err
		}
		if c.PredSeconds, err = r.float(); err != nil {
			return nil, err
		}
		if c.CalSeconds, err = r.float(); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// DecodeFrame decodes the first frame in data and returns it along with
// the number of bytes consumed.
func DecodeFrame(data []byte) (*Frame, int, error) {
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, want %d-byte header", ErrMalformed, len(data), headerLen)
	}
	if data[0] != magic0 || data[1] != magic1 {
		return nil, 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrMalformed, data[0], data[1])
	}
	if data[2] != Version {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, data[2], Version)
	}
	typ := data[3]
	plen := binary.LittleEndian.Uint32(data[4:])
	if plen > maxFrameLen || headerLen+int(plen) > len(data) {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds body", ErrMalformed, plen)
	}
	f, err := decodePayload(typ, data[headerLen:headerLen+int(plen)], nil)
	if err != nil {
		return nil, 0, err
	}
	return f, headerLen + int(plen), nil
}

// decodePayload decodes one frame payload whose header has already been
// validated. It is shared between DecodeFrame (whole-body decoding) and
// StreamReader.Next (incremental connection reads, which pass their
// intern table as strs).
func decodePayload(typ byte, payload []byte, strs map[string]string) (*Frame, error) {
	r := &reader{b: payload, strs: strs}
	f := &Frame{Type: typ}
	var err error
	switch typ {
	case TypeRequest:
		f.Req, err = decodeRequestPayload(r)
	case TypeBatchRequest:
		var n int
		if n, err = r.count(2); err == nil {
			f.Reqs = make([]Request, 0, n)
			for i := 0; i < n && err == nil; i++ {
				var req *Request
				if req, err = decodeRequestPayload(r); err == nil {
					f.Reqs = append(f.Reqs, *req)
				}
			}
		}
	case TypeResponse:
		f.Resp, err = decodeResponsePayload(r)
	case TypeBatchResponse:
		var co uint64
		if co, err = r.uvarint(); err == nil {
			f.Coalesced = int(co)
			var n int
			if n, err = r.count(2); err == nil {
				f.Resps = make([]Response, 0, n)
				for i := 0; i < n && err == nil; i++ {
					var resp *Response
					if resp, err = decodeResponsePayload(r); err == nil {
						f.Resps = append(f.Resps, *resp)
					}
				}
			}
		}
	case TypeError:
		f.Err, err = decodeErrorPayload(r)
	case TypeStreamRequest:
		f.StreamID, f.Req, err = decodeStreamRequestPayload(r)
	case TypeStreamResponse:
		f.StreamID, f.Resp, err = decodeStreamResponsePayload(r)
	case TypeCredit:
		f.Credit, err = r.uvarint()
	case TypeGoaway:
		f.Away, err = decodeGoawayPayload(r)
	case TypeGossip:
		f.Gossip, err = decodeGossipPayload(r)
	default:
		err = fmt.Errorf("%w: unknown frame type %d", ErrMalformed, typ)
	}
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeAll decodes a body of one or more back-to-back frames. It
// rejects empty bodies and trailing garbage.
func DecodeAll(data []byte) ([]*Frame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty body", ErrMalformed)
	}
	var frames []*Frame
	for len(data) > 0 {
		f, n, err := DecodeFrame(data)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
		data = data[n:]
	}
	return frames, nil
}
