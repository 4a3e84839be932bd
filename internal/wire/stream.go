// Stream frame envelope: the frame types and incremental reader that
// turn the request/response framing into a persistent, multiplexed
// connection protocol.
//
// A stream connection carries pipelined TypeStreamRequest /
// TypeStreamResponse frames. Each is an ordinary request or response
// payload prefixed with a uvarint stream ID; the client assigns IDs
// (strictly increasing from 1 per connection) and matches responses by
// ID, so completions may arrive out of order and a slow decision never
// blocks the fast ones pipelined behind it.
//
// Handshake: the server speaks first. Immediately after accepting a
// connection it sends a TypeCredit frame granting the flow-control
// window — the maximum number of streams the client may have in flight
// (sent but unanswered). A client that reads anything else (or a frame
// with the wrong version byte) treats the endpoint as not speaking the
// stream dialect and downgrades to HTTP framing. Each response
// implicitly returns one unit of credit.
//
// Shutdown: either side sends TypeGoaway carrying the last stream ID it
// will answer plus a human-readable reason. In-flight streams at or
// below that ID complete normally; later requests are answered with a
// "draining" error response so no verdict is ever left hanging.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Stream frame types, extending the request/response set.
const (
	// TypeStreamRequest is a TypeRequest payload prefixed with a
	// uvarint stream ID.
	TypeStreamRequest = 6
	// TypeStreamResponse is a TypeResponse payload prefixed with a
	// uvarint stream ID. Its error bit works exactly as in
	// TypeResponse: per-stream errors arrive as responses with Err set.
	TypeStreamResponse = 7
	// TypeCredit grants the per-connection flow-control window: the
	// maximum number of in-flight (unanswered) streams the peer may
	// hold open. Sent by the server as the first frame on a connection.
	TypeCredit = 8
	// TypeGoaway announces graceful shutdown: streams with IDs at or
	// below LastStreamID will be answered, later ones will not.
	TypeGoaway = 9
)

// Goaway is the payload of a TypeGoaway frame.
type Goaway struct {
	LastStreamID uint64
	Reason       string
}

// AppendStreamRequest appends a complete TypeStreamRequest frame.
func AppendStreamRequest(dst []byte, id uint64, r *Request) []byte {
	dst, at := beginFrame(dst, TypeStreamRequest)
	dst = binary.AppendUvarint(dst, id)
	dst = appendRequestPayload(dst, r)
	return endFrame(dst, at)
}

// AppendStreamResponse appends a complete TypeStreamResponse frame.
func AppendStreamResponse(dst []byte, id uint64, r *Response) []byte {
	dst, at := beginFrame(dst, TypeStreamResponse)
	dst = binary.AppendUvarint(dst, id)
	dst = appendResponsePayload(dst, r)
	return endFrame(dst, at)
}

// AppendCredit appends a complete TypeCredit frame granting a window of
// n in-flight streams.
func AppendCredit(dst []byte, n uint64) []byte {
	dst, at := beginFrame(dst, TypeCredit)
	dst = binary.AppendUvarint(dst, n)
	return endFrame(dst, at)
}

// AppendGoaway appends a complete TypeGoaway frame.
func AppendGoaway(dst []byte, g *Goaway) []byte {
	dst, at := beginFrame(dst, TypeGoaway)
	dst = binary.AppendUvarint(dst, g.LastStreamID)
	dst = appendString(dst, g.Reason)
	return endFrame(dst, at)
}

func decodeStreamRequestPayload(r *reader) (uint64, *Request, error) {
	id, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	req, err := decodeRequestPayload(r)
	return id, req, err
}

func decodeStreamResponsePayload(r *reader) (uint64, *Response, error) {
	id, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	resp, err := decodeResponsePayload(r)
	return id, resp, err
}

func decodeGoawayPayload(r *reader) (*Goaway, error) {
	last, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	g := &Goaway{LastStreamID: last}
	if g.Reason, err = r.string(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---- Incremental reading ----

// Intern table bounds: a StreamReader keeps decoded strings of at most
// maxInternLen bytes, up to maxInterned of them (64 KiB of string data
// per connection at most).
const (
	maxInternLen = 64
	maxInterned  = 1024
)

// A StreamReader decodes frames incrementally from a long-lived
// connection, reusing one payload buffer across frames so steady-state
// reads cost no buffer allocations. Short strings (regions, verdicts,
// kinds, policies, provenances, target IDs, error codes) repeat on
// almost every frame of a connection, so the reader interns them: a
// string seen before is returned without allocating. It is not safe
// for concurrent use; each connection owns exactly one reader goroutine.
type StreamReader struct {
	br   *bufio.Reader
	buf  []byte
	strs map[string]string
}

// NewStreamReader wraps r (buffering it if it is not already a
// *bufio.Reader).
func NewStreamReader(r io.Reader) *StreamReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &StreamReader{br: br, buf: make([]byte, 0, 2048), strs: map[string]string{}}
}

// Next reads and decodes the next frame. io.EOF is returned untouched
// on a clean end-of-stream between frames; a connection that dies
// mid-frame surfaces io.ErrUnexpectedEOF. The returned frame does not
// alias the reader's internal buffer and remains valid after further
// Next calls.
func (sr *StreamReader) Next() (*Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(sr.br, hdr[:1]); err != nil {
		return nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(sr.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return nil, fmt.Errorf("%w: bad magic %#02x%02x", ErrMalformed, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[2], Version)
	}
	plen := binary.LittleEndian.Uint32(hdr[4:])
	if plen > maxFrameLen {
		return nil, fmt.Errorf("%w: payload length %d exceeds cap", ErrMalformed, plen)
	}
	if cap(sr.buf) < int(plen) {
		sr.buf = make([]byte, plen)
	}
	payload := sr.buf[:plen]
	if _, err := io.ReadFull(sr.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return decodePayload(hdr[3], payload, sr.strs)
}
