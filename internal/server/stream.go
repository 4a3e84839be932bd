package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the persistent face of the decision service: long-lived
// connections carrying pipelined stream frames (internal/wire stream
// envelope), so many in-flight decisions share one connection with no
// per-request HTTP parsing. Two front doors lead here — a raw TCP
// listener (ServeStream, hybridseld -stream-addr) and an HTTP
// Upgrade/hijack on GET /v1/stream of the existing port — and both run
// the same per-connection machinery:
//
//   - one reader goroutine decoding frames incrementally,
//   - a small worker pool running decideOneWire under the shared
//     execution slots (the same workers that bound the HTTP path),
//   - a combining writer: workers append encoded response frames to a
//     shared pending buffer and whichever worker finds the writer idle
//     flushes the whole batch in one syscall, so bursts of completions
//     coalesce without a latency-adding flush timer,
//   - flow control by credit instead of 429 churn: the server grants a
//     window on connect, requests beyond it answer queue_full on their
//     own stream, and each response implicitly returns one unit,
//   - graceful drain by Goaway: in-flight streams complete, later ones
//     answer a draining error, nothing is left hanging.

// DefaultStreamCredit is the per-connection in-flight window granted
// when Config.StreamCredit is zero.
const DefaultStreamCredit = 64

// StreamUpgradeProto is the Upgrade token negotiating a stream
// connection over the HTTP port.
const StreamUpgradeProto = "hybridsel-stream"

// streamWorkersPerConn caps the per-connection worker pool; the shared
// execution slots still bound global concurrency across connections.
const streamWorkersPerConn = 8

// streamRegistry tracks live stream listeners and connections for
// drain: Shutdown closes listeners, sends Goaway everywhere, and waits
// for connections to finish their in-flight streams.
type streamRegistry struct {
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*streamConn]struct{}
	done      chan struct{} // closed when conns empties during drain
}

// ServeStream accepts stream connections on l until Shutdown. Each
// connection speaks the wire stream envelope directly (no HTTP); the
// server opens with a TypeCredit grant. Called after Shutdown has
// begun, it closes l and returns nil at once.
func (s *Server) ServeStream(l net.Listener) error {
	s.streams.mu.Lock()
	if s.draining.Load() {
		// Shutdown has begun (and may already have closed the listeners
		// it knew of): refuse to start accepting.
		s.streams.mu.Unlock()
		l.Close()
		return nil
	}
	if s.streams.listeners == nil {
		s.streams.listeners = map[net.Listener]struct{}{}
	}
	s.streams.listeners[l] = struct{}{}
	s.streams.mu.Unlock()
	defer func() {
		s.streams.mu.Lock()
		delete(s.streams.listeners, l)
		s.streams.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveStreamConn(conn)
	}
}

// handleStreamUpgrade negotiates a stream connection on the HTTP port:
// GET /v1/stream with Upgrade: hybridsel-stream hijacks the connection,
// answers 101, and hands the raw conn to the stream machinery.
func (s *Server) handleStreamUpgrade(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	if r.Header.Get("Upgrade") != StreamUpgradeProto {
		httpError(w, http.StatusUpgradeRequired, ErrCodeBadRequest,
			fmt.Sprintf("connection upgrade %q required", StreamUpgradeProto))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, "connection not hijackable")
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, "hijack: "+err.Error())
		return
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: " + StreamUpgradeProto + "\r\n\r\n"
	if _, err := bufrw.WriteString(resp); err != nil || bufrw.Flush() != nil {
		conn.Close()
		return
	}
	// bufrw.Reader may hold bytes the client pipelined behind the
	// upgrade request; serve from it, not the bare conn.
	s.serveStreamConnBuffered(conn, bufrw.Reader)
}

// streamJob is one admitted stream request awaiting a worker.
type streamJob struct {
	id  uint64
	req *wire.Request
}

// streamConn is the server half of one stream connection.
type streamConn struct {
	s      *Server
	conn   net.Conn
	credit int64
	ctx    context.Context
	cancel context.CancelFunc

	jobs     chan streamJob
	inflight atomic.Int64
	wg       sync.WaitGroup // in-flight jobs

	lastAccepted atomic.Uint64 // highest stream ID dispatched or answered
	away         atomic.Bool   // Goaway sent
	awayLast     atomic.Uint64 // LastStreamID carried in our Goaway

	// Combining writer state: workers append frames to pending under
	// wmu; the appender that finds the writer idle becomes the flusher
	// and writes batches until pending drains.
	wmu      sync.Mutex
	pending  []byte
	pendingN int
	spare    []byte
	flushing bool
	werr     error
}

func (s *Server) serveStreamConn(conn net.Conn) {
	s.serveStreamConnBuffered(conn, nil)
}

func (s *Server) serveStreamConnBuffered(conn net.Conn, pre io.Reader) {
	credit := int64(s.cfg.StreamCredit)
	if credit <= 0 {
		credit = DefaultStreamCredit
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := &streamConn{
		s:      s,
		conn:   conn,
		credit: credit,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(chan streamJob, credit),
		spare:  make([]byte, 0, 4096),
	}
	if !s.registerStream(sc) {
		conn.Close()
		cancel()
		return
	}
	s.met.streamConns.Add(1)
	defer func() {
		sc.wg.Wait() // let in-flight responses flush
		close(sc.jobs)
		conn.Close()
		cancel()
		s.met.streamConns.Add(-1)
		s.unregisterStream(sc)
	}()

	// The server speaks first: grant the flow-control window.
	var hello []byte
	hello = wire.AppendCredit(hello, uint64(credit))
	if s.draining.Load() {
		// Raced with drain: still a valid stream conn, but nothing
		// will be accepted. Say so immediately.
		sc.away.Store(true)
		hello = wire.AppendGoaway(hello, &wire.Goaway{Reason: "draining"})
	}
	sc.send(hello)

	workers := int(min(int64(streamWorkersPerConn), credit))
	for i := 0; i < workers; i++ {
		go sc.worker()
	}

	var src io.Reader = conn
	if pre != nil {
		src = pre
	}
	sr := wire.NewStreamReader(src)
	var scratch []byte
	for {
		f, err := sr.Next()
		if err != nil {
			// EOF (clean or mid-frame) and decode failures all end the
			// connection; in-flight work still completes via the
			// deferred wg.Wait.
			return
		}
		switch f.Type {
		case wire.TypeStreamRequest:
			s.met.streamRequests.Add(1)
			if f.StreamID > sc.lastAccepted.Load() {
				sc.lastAccepted.Store(f.StreamID)
			}
			if sc.away.Load() && f.StreamID > sc.awayLast.Load() {
				scratch = sc.rejectStream(scratch, f.StreamID, ErrCodeDraining, "draining")
				continue
			}
			if sc.inflight.Load() >= sc.credit {
				// Client overran its credit window: shed on this
				// stream only, the stream analogue of a 429.
				scratch = sc.rejectStream(scratch, f.StreamID, ErrCodeQueueFull, "stream credit exhausted")
				continue
			}
			sc.inflight.Add(1)
			s.met.streamInflight.Add(1)
			sc.wg.Add(1)
			sc.jobs <- streamJob{id: f.StreamID, req: f.Req}
		case wire.TypeGoaway:
			// Client is leaving; keep answering what's in flight and
			// let its close of the write side end the loop.
		case wire.TypeCredit:
			// Credit flows server→client only; ignore.
		default:
			// Protocol error: answer with a connection-level error
			// frame and drop the connection.
			e := &wire.Error{Code: ErrCodeBadRequest,
				Message: fmt.Sprintf("unexpected frame type %d on stream connection", f.Type)}
			sc.send(wire.AppendError(scratch[:0], e))
			return
		}
	}
}

// rejectStream answers one stream with an error response without
// dispatching a worker. Returns the reusable scratch buffer.
func (sc *streamConn) rejectStream(scratch []byte, id uint64, code, msg string) []byte {
	resp := wire.Response{Err: &wire.Error{Code: code, Message: msg, RetryAfterSeconds: 0.05}}
	scratch = wire.AppendStreamResponse(scratch[:0], id, &resp)
	sc.send(scratch)
	return scratch
}

// worker runs admitted stream jobs under the shared execution slots.
func (sc *streamConn) worker() {
	s := sc.s
	scratch := make([]byte, 0, 2048)
	var cands []wire.Candidate
	for job := range sc.jobs {
		s.slots <- struct{}{}
		if s.holdForTest != nil {
			s.holdForTest()
		}
		out, ei := s.decideOneWire(sc.ctx, job.req)
		<-s.slots
		resp := projectWireInto(job.req.Region, out, ei, cands[:0])
		if resp.Candidates != nil {
			cands = resp.Candidates
		}
		scratch = wire.AppendStreamResponse(scratch[:0], job.id, &resp)
		// Release the credit slot before the response is visible: a
		// client at its window sends the next frame as soon as it reads
		// this one, and the reader must already count the slot as free
		// (DESIGN.md §15). wg.Done stays after send so drain still waits
		// for the write.
		sc.inflight.Add(-1)
		s.met.streamInflight.Add(-1)
		sc.send(scratch)
		if s.sentForTest != nil {
			s.sentForTest()
		}
		sc.wg.Done()
	}
}

// send appends one encoded frame to the connection's pending buffer and
// flushes if no other goroutine is already writing. The caller's buffer
// is copied, so callers reuse their scratch immediately. Batches that
// pile up while a write syscall is in progress go out together on the
// next write — write coalescing without a flush timer, so a lone
// request never waits.
func (sc *streamConn) send(frame []byte) {
	sc.wmu.Lock()
	if sc.werr != nil {
		sc.wmu.Unlock()
		return
	}
	sc.pending = append(sc.pending, frame...)
	sc.pendingN++
	if sc.flushing {
		sc.wmu.Unlock()
		return
	}
	sc.flushing = true
	for sc.werr == nil && len(sc.pending) > 0 {
		buf, n := sc.pending, sc.pendingN
		sc.pending, sc.pendingN = sc.spare[:0], 0
		sc.wmu.Unlock()

		_, err := sc.conn.Write(buf)
		sc.s.met.streamWrites.Add(1)
		if n > 1 {
			sc.s.met.streamCoalesced.Add(uint64(n - 1))
		}

		sc.wmu.Lock()
		if cap(buf) <= maxPooledEncodeBuf {
			sc.spare = buf[:0]
		} else {
			sc.spare = make([]byte, 0, 4096)
		}
		if err != nil {
			sc.werr = err
		}
	}
	sc.flushing = false
	sc.wmu.Unlock()
}

// goaway announces drain on this connection: streams accepted so far
// will be answered, later ones get a draining error response.
func (sc *streamConn) goaway(reason string) {
	if sc.away.Swap(true) {
		return
	}
	sc.awayLast.Store(sc.lastAccepted.Load())
	sc.send(wire.AppendGoaway(nil, &wire.Goaway{LastStreamID: sc.awayLast.Load(), Reason: reason}))
}

func (s *Server) registerStream(sc *streamConn) bool {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	if s.streams.done != nil {
		// Drain already started waiting; refuse new connections.
		return false
	}
	if s.streams.conns == nil {
		s.streams.conns = map[*streamConn]struct{}{}
	}
	s.streams.conns[sc] = struct{}{}
	return true
}

func (s *Server) unregisterStream(sc *streamConn) {
	s.streams.mu.Lock()
	delete(s.streams.conns, sc)
	if s.streams.done != nil && len(s.streams.conns) == 0 {
		close(s.streams.done)
		s.streams.done = nil
	}
	s.streams.mu.Unlock()
}

// shutdownStreams drains the stream plane: close listeners, Goaway
// every connection, wait (bounded by ctx) for in-flight streams to
// finish and clients to hang up, then force-close stragglers.
func (s *Server) shutdownStreams(ctx context.Context) error {
	s.streams.mu.Lock()
	for l := range s.streams.listeners {
		l.Close()
	}
	conns := make([]*streamConn, 0, len(s.streams.conns))
	for sc := range s.streams.conns {
		conns = append(conns, sc)
	}
	var done chan struct{}
	if len(conns) > 0 {
		done = make(chan struct{})
		s.streams.done = done
	}
	s.streams.mu.Unlock()

	for _, sc := range conns {
		sc.goaway("draining")
	}
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.streams.mu.Lock()
		for sc := range s.streams.conns {
			sc.cancel()
			sc.conn.Close()
		}
		s.streams.done = nil
		s.streams.mu.Unlock()
		return ctx.Err()
	}
}
