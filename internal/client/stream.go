package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the client half of the persistent stream transport
// (internal/wire stream envelope): a small pool of long-lived
// connections carrying pipelined decide frames tagged with stream IDs,
// so steady-state decisions cost one frame write and one frame read —
// no per-request HTTP parsing, no connection churn.
//
// Resilience composes with the existing pipeline rather than replacing
// it: a stream attempt that fails at the transport level (dial refused,
// connection death mid-flight, server Goaway, reconnect backoff) falls
// through to the HTTP attempt inside the same retry slot, so a dying
// stream connection costs latency, never a verdict. Per-stream error
// responses (queue_full, draining, unknown_region, ...) classify
// exactly like their HTTP envelope twins. An endpoint that provably
// does not speak the stream dialect — wrong version byte, no credit
// handshake, upgrade refused — latches a sticky downgrade to HTTP
// framing, mirroring the binary→JSON downgrade ladder.

// DefaultStreamConns is the connection pool size when Config.StreamConns
// is zero.
const DefaultStreamConns = 2

// Stream transport errors. All are transport-level: the request was
// never (or may never be) answered, and the caller should fail over to
// HTTP. errStreamProtocol additionally means the peer does not speak
// the stream dialect at all, so the client downgrades stickily.
var (
	errStreamProtocol = errors.New("client: peer does not speak the stream protocol")
	errStreamBroken   = errors.New("client: stream connection broken")
	errStreamGoaway   = errors.New("client: stream connection drained by server")
	errStreamBackoff  = errors.New("client: stream reconnect backing off")
)

// StreamDialConfig configures one raw stream connection (DialStream).
type StreamDialConfig struct {
	// Addr is the raw TCP stream address (hybridseld -stream-addr).
	// When empty, URL's host is dialed and the connection is negotiated
	// via HTTP Upgrade on GET /v1/stream.
	Addr string
	// URL is the daemon base URL, e.g. "http://127.0.0.1:8080". Only
	// plain http URLs can upgrade; TLS endpoints are a protocol error.
	URL string
	// DialTimeout bounds dialing plus the credit handshake (default 2s).
	DialTimeout time.Duration
}

// StreamConn is one persistent multiplexed stream connection. It is
// safe for concurrent use: many goroutines may Decide at once, each
// call claims a stream ID and a unit of the server-granted credit
// window, and responses are correlated by ID so completions arrive out
// of order without blocking one another.
type StreamConn struct {
	conn   net.Conn
	credit int
	sem    chan struct{} // credit tokens
	nextID atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan *wire.Frame
	away    bool
	dead    bool
	err     error
	done    chan struct{} // closed when the connection dies

	wmu  sync.Mutex
	wbuf []byte
}

// DialStream opens and handshakes one stream connection: dial (raw TCP
// or HTTP Upgrade), then read the server's TypeCredit grant. A peer
// that answers with anything else does not speak the protocol.
func DialStream(cfg StreamDialConfig) (*StreamConn, error) {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	deadline := time.Now().Add(timeout)
	var conn net.Conn
	var err error
	if cfg.Addr != "" {
		conn, err = net.DialTimeout("tcp", cfg.Addr, timeout)
		if err != nil {
			return nil, err
		}
	} else {
		conn, err = dialUpgrade(cfg.URL, timeout)
		if err != nil {
			return nil, err
		}
	}
	_ = conn.SetDeadline(deadline)
	sr := wire.NewStreamReader(conn)
	f, err := sr.Next()
	if err != nil || f.Type != wire.TypeCredit || f.Credit == 0 {
		conn.Close()
		if errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrMalformed) || err == nil {
			return nil, fmt.Errorf("%w: handshake: %v", errStreamProtocol, err)
		}
		return nil, fmt.Errorf("stream handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	credit := int(min(f.Credit, 1<<16))
	sc := &StreamConn{
		conn:    conn,
		credit:  credit,
		sem:     make(chan struct{}, credit),
		waiters: make(map[uint64]chan *wire.Frame, credit),
		done:    make(chan struct{}),
		wbuf:    make([]byte, 0, 2048),
	}
	for i := 0; i < credit; i++ {
		sc.sem <- struct{}{}
	}
	go sc.readLoop(sr)
	return sc, nil
}

// dialUpgrade negotiates a stream connection over the HTTP port via
// GET /v1/stream with Upgrade: hybridsel-stream.
func dialUpgrade(base string, timeout time.Duration) (net.Conn, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("%w: parse URL: %v", errStreamProtocol, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("%w: cannot upgrade %q endpoints", errStreamProtocol, u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", host, timeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	req := "GET /v1/stream HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: hybridsel-stream\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: upgrade response: %v", errStreamProtocol, err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		conn.Close()
		return nil, fmt.Errorf("%w: upgrade refused with HTTP %d", errStreamProtocol, resp.StatusCode)
	}
	_ = conn.SetDeadline(time.Time{})
	// The server speaks immediately after the 101; any bytes it
	// pipelined behind the response sit in br, so wrap it.
	return &bufferedConn{Conn: conn, r: br}, nil
}

// bufferedConn reads through the bufio.Reader that may hold bytes the
// server sent right behind its 101 response.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// Credit returns the server-granted in-flight window.
func (sc *StreamConn) Credit() int { return sc.credit }

// Usable reports whether the connection can accept new streams (alive
// and not drained by a server Goaway).
func (sc *StreamConn) Usable() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return !sc.dead && !sc.away
}

// Close tears the connection down, failing any in-flight streams.
func (sc *StreamConn) Close() error {
	sc.die(errStreamBroken)
	return nil
}

// Decide sends one request on a fresh stream and waits for the matching
// response. Transport-level failures (connection death, Goaway, credit
// wait cut short by ctx) return an error and the caller should fail
// over; a response with Err set is returned as-is for the caller to
// classify, exactly like an HTTP error envelope.
func (sc *StreamConn) Decide(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	f, err := sc.exchange(ctx, req)
	if err != nil {
		return nil, err
	}
	return f.Resp, nil
}

// replyChans recycles the one-shot channels stream calls wait on. Only
// a channel whose reply was received goes back: an abandoned one may
// still get a late send from the reader.
var replyChans = sync.Pool{New: func() any { return make(chan *wire.Frame, 1) }}

// exchange is Decide returning the whole response frame.
func (sc *StreamConn) exchange(ctx context.Context, req *wire.Request) (*wire.Frame, error) {
	// Claim a unit of the credit window; the reader returns it when the
	// response (any response) arrives.
	select {
	case <-sc.sem:
	case <-sc.done:
		return nil, sc.deathErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	id := sc.nextID.Add(1)
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return nil, sc.deathErr()
	}
	if sc.away {
		sc.mu.Unlock()
		sc.sem <- struct{}{}
		return nil, errStreamGoaway
	}
	ch := replyChans.Get().(chan *wire.Frame)
	sc.waiters[id] = ch
	sc.mu.Unlock()

	if err := sc.write(id, req); err != nil {
		sc.mu.Lock()
		delete(sc.waiters, id)
		sc.mu.Unlock()
		return nil, err
	}
	select {
	case f := <-ch:
		replyChans.Put(ch)
		return f, nil
	case <-sc.done:
		return nil, sc.deathErr()
	case <-ctx.Done():
		sc.mu.Lock()
		delete(sc.waiters, id)
		sc.mu.Unlock()
		// The credit unit stays claimed until the server's response
		// arrives; the reader returns it even with no waiter left.
		return nil, ctx.Err()
	}
}

// write encodes and sends one stream request frame. The shared encode
// buffer doubles as a write combiner: requests from concurrent callers
// serialize on wmu and ride consecutive writes.
func (sc *StreamConn) write(id uint64, req *wire.Request) error {
	sc.wmu.Lock()
	sc.wbuf = wire.AppendStreamRequest(sc.wbuf[:0], id, req)
	_, err := sc.conn.Write(sc.wbuf)
	sc.wmu.Unlock()
	if err != nil {
		sc.die(fmt.Errorf("%w: write: %v", errStreamBroken, err))
		return sc.deathErr()
	}
	return nil
}

func (sc *StreamConn) readLoop(sr *wire.StreamReader) {
	for {
		f, err := sr.Next()
		if err != nil {
			sc.die(fmt.Errorf("%w: read: %v", errStreamBroken, err))
			return
		}
		switch f.Type {
		case wire.TypeStreamResponse:
			sc.mu.Lock()
			ch := sc.waiters[f.StreamID]
			delete(sc.waiters, f.StreamID)
			sc.mu.Unlock()
			// Return the credit unit (also for abandoned waiters) before
			// delivering: a caller that sends again the moment it reads
			// its reply must find the unit free (DESIGN.md §15).
			select {
			case sc.sem <- struct{}{}:
			default:
			}
			if ch != nil {
				ch <- f
			}
		case wire.TypeGoaway:
			sc.mu.Lock()
			sc.away = true
			sc.mu.Unlock()
		case wire.TypeCredit:
			// Re-grants are not resized mid-connection; ignore.
		case wire.TypeError:
			sc.die(fmt.Errorf("%w: server: %s: %s", errStreamBroken, f.Err.Code, f.Err.Message))
			return
		default:
			sc.die(fmt.Errorf("%w: unexpected frame type %d", errStreamProtocol, f.Type))
			return
		}
	}
}

// die marks the connection dead, fails every in-flight stream, and
// closes the socket. Idempotent.
func (sc *StreamConn) die(err error) {
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	sc.dead = true
	sc.err = err
	sc.waiters = nil
	close(sc.done)
	sc.mu.Unlock()
	sc.conn.Close()
}

func (sc *StreamConn) deathErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return sc.err
	}
	return errStreamBroken
}

// ------------------------------------------------------------- pooling --

// streamPool keeps Config.StreamConns persistent connections, redialing
// dead slots with exponential backoff. Calls round-robin across slots;
// a slot mid-backoff or mid-drain answers errStreamBackoff and the
// caller fails over to HTTP for that attempt.
type streamPool struct {
	c    *Client
	next atomic.Uint64

	slots []streamSlot
}

type streamSlot struct {
	mu      sync.Mutex
	conn    *StreamConn
	dialed  bool // a connection existed before (reconnects count)
	retryAt time.Time
	backoff time.Duration
}

func newStreamPool(c *Client) *streamPool {
	n := c.cfg.StreamConns
	if n <= 0 {
		n = DefaultStreamConns
	}
	return &streamPool{c: c, slots: make([]streamSlot, n)}
}

// get returns a usable connection from the next slot, dialing if the
// slot is empty or its connection has died or drained.
func (p *streamPool) get() (*StreamConn, error) {
	sl := &p.slots[int(p.next.Add(1))%len(p.slots)]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.conn != nil && sl.conn.Usable() {
		return sl.conn, nil
	}
	if sl.conn != nil {
		sl.conn.Close()
		sl.conn = nil
	}
	if time.Now().Before(sl.retryAt) {
		return nil, errStreamBackoff
	}
	sc, err := DialStream(StreamDialConfig{
		Addr:        p.c.cfg.StreamAddr,
		URL:         p.c.cfg.BaseURL,
		DialTimeout: p.c.cfg.Timeout,
	})
	if err != nil {
		if sl.backoff <= 0 {
			sl.backoff = 20 * time.Millisecond
		} else {
			sl.backoff *= 2
			if sl.backoff > 2*time.Second {
				sl.backoff = 2 * time.Second
			}
		}
		sl.retryAt = time.Now().Add(sl.backoff)
		if errors.Is(err, errStreamProtocol) {
			p.c.downgradeStream()
		}
		return nil, err
	}
	if sl.dialed {
		p.c.met.streamReconnects.Add(1)
	}
	sl.dialed = true
	sl.backoff = 0
	sl.conn = sc
	return sc, nil
}

// close tears down every pooled connection.
func (p *streamPool) close() {
	for i := range p.slots {
		sl := &p.slots[i]
		sl.mu.Lock()
		if sl.conn != nil {
			sl.conn.Close()
			sl.conn = nil
		}
		sl.mu.Unlock()
	}
}

// -------------------------------------------------------- client glue --

// streamEnabled reports whether the next decide should try the stream
// transport first.
func (c *Client) streamEnabled() bool {
	return c.cfg.Stream && !c.streamDown.Load()
}

// downgradeStream latches the sticky downgrade from stream transport to
// HTTP framing, counting the first flip only.
func (c *Client) downgradeStream() {
	if c.streamDown.CompareAndSwap(false, true) {
		c.met.streamDowngrades.Add(1)
	}
}

// streamAttempt runs one decide over the stream transport. The second
// return distinguishes a classified outcome (resolved: deliver or
// retry via the normal loop) from a transport-level failure (not
// resolved: the caller falls through to HTTP inside the same attempt).
func (c *Client) streamAttempt(ctx context.Context, p *payload) (rtResult, *callErr, bool) {
	sc, err := c.spool.get()
	if err != nil {
		return rtResult{}, nil, false
	}
	c.met.streamCalls.Add(1)
	start := time.Now()
	f, err := sc.exchange(ctx, &p.wreq)
	if err != nil {
		if ctx.Err() != nil {
			// The attempt deadline cut the wait short: that is this
			// attempt's outcome, not the connection's fault.
			return rtResult{}, &callErr{err: err, retryable: true, breaker: true}, true
		}
		return rtResult{}, nil, false
	}
	if e := f.Resp.Err; e != nil {
		// Credit-window or admission shedding answers queue_full on
		// this stream; it classifies like the HTTP path's envelope.
		re := remoteErr{
			code:       e.Code,
			msg:        e.Message,
			retryAfter: time.Duration(e.RetryAfterSeconds * float64(time.Second)),
		}
		return rtResult{}, re.failure(&c.met, e.Status, "stream"), true
	}
	c.latStream.observe(time.Since(start))
	return rtResult{frame: f, transport: TransportStream}, nil, true
}
