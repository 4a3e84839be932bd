package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// startStreamServer brings up a server with a raw TCP stream listener
// and returns the listener address.
func startStreamServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeStream(l) }()
	t.Cleanup(func() {
		l.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeStream: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("ServeStream did not return after listener close")
		}
	})
	return l.Addr().String()
}

// dialStream connects to a raw stream listener and consumes the credit
// handshake.
func dialStream(t *testing.T, addr string) (net.Conn, *wire.StreamReader, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sr := wire.NewStreamReader(conn)
	f, err := sr.Next()
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if f.Type != wire.TypeCredit || f.Credit == 0 {
		t.Fatalf("handshake frame = %+v, want credit grant", f)
	}
	return conn, sr, int(f.Credit)
}

func streamReq(t *testing.T, conn net.Conn, id uint64, region string, n int64) {
	t.Helper()
	req := wire.Request{Region: region, Names: []string{"n"}, Values: []int64{n}}
	if _, err := conn.Write(wire.AppendStreamRequest(nil, id, &req)); err != nil {
		t.Fatalf("write stream %d: %v", id, err)
	}
}

func TestStreamServeBasic(t *testing.T) {
	s := testServer(t, Config{})
	addr := startStreamServer(t, s)
	conn, sr, credit := dialStream(t, addr)
	if credit != DefaultStreamCredit {
		t.Fatalf("credit = %d, want %d", credit, DefaultStreamCredit)
	}

	streamReq(t, conn, 1, "gemm", 1100)
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeStreamResponse || f.StreamID != 1 {
		t.Fatalf("frame = %+v, want stream response 1", f)
	}
	if f.Resp.Err != nil {
		t.Fatalf("stream 1 errored: %+v", f.Resp.Err)
	}
	if f.Resp.Kind != "cpu" && f.Resp.Kind != "gpu" {
		t.Fatalf("kind = %q", f.Resp.Kind)
	}

	// Same bindings again: decision-cache hit, same verdict.
	streamReq(t, conn, 2, "gemm", 1100)
	f2, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f2.StreamID != 2 || !f2.Resp.CacheHit || f2.Resp.Verdict != f.Resp.Verdict {
		t.Fatalf("second decide = %+v, want cache hit matching %q", f2.Resp, f.Resp.Verdict)
	}

	// Semantic failures ride the stream as error responses.
	streamReq(t, conn, 3, "nope", 1)
	f3, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f3.Resp.Err == nil || f3.Resp.Err.Code != ErrCodeUnknownRegion {
		t.Fatalf("unknown region answered %+v, want %s", f3.Resp, ErrCodeUnknownRegion)
	}
	if got := s.met.streamRequests.Load(); got != 3 {
		t.Fatalf("streamRequests = %d, want 3", got)
	}
}

// TestStreamOutOfOrder: a slow decision must not block the fast one
// pipelined behind it — completions are matched by stream ID, not
// arrival order.
func TestStreamOutOfOrder(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 1)
	var once sync.Once
	s := testServer(t, Config{Concurrency: 4})
	s.holdForTest = func() {
		var wait bool
		once.Do(func() { wait = true; blocked <- struct{}{} })
		if wait {
			<-release
		}
	}
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	streamReq(t, conn, 1, "gemm", 256)
	<-blocked // stream 1 is parked inside its worker
	streamReq(t, conn, 2, "mvt1", 512)

	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 2 {
		t.Fatalf("first completion is stream %d, want the fast stream 2", f.StreamID)
	}
	close(release)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("slow stream answered %+v, want stream 1 ok", f)
	}
}

// TestStreamCreditExhaustion: requests beyond the granted window are
// shed with queue_full semantics on their own stream — backpressure,
// not a dropped frame or a killed connection.
func TestStreamCreditExhaustion(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := testServer(t, Config{Concurrency: 2, StreamCredit: 2})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	addr := startStreamServer(t, s)
	conn, sr, credit := dialStream(t, addr)
	if credit != 2 {
		t.Fatalf("credit = %d, want 2", credit)
	}

	streamReq(t, conn, 1, "gemm", 256)
	streamReq(t, conn, 2, "gemm", 512)
	<-entered // both in flight inside workers
	<-entered

	streamReq(t, conn, 3, "gemm", 1100) // over the window
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 3 || f.Resp.Err == nil || f.Resp.Err.Code != ErrCodeQueueFull {
		t.Fatalf("over-credit stream answered %+v, want queue_full on stream 3", f)
	}
	if f.Resp.Err.RetryAfterSeconds <= 0 {
		t.Fatalf("queue_full carries no retry hint: %+v", f.Resp.Err)
	}

	close(release)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Resp.Err != nil {
			t.Fatalf("stream %d errored after release: %+v", f.StreamID, f.Resp.Err)
		}
		seen[f.StreamID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("in-flight streams not completed: %v", seen)
	}
}

// TestStreamDrainGoaway: Shutdown sends Goaway, in-flight streams
// complete, later streams answer draining — no verdict hangs.
func TestStreamDrainGoaway(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := testServer(t, Config{Concurrency: 2})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	streamReq(t, conn, 1, "gemm", 256)
	streamReq(t, conn, 2, "mvt1", 512)
	<-entered
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Goaway arrives while streams 1 and 2 are still in flight.
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeGoaway {
		t.Fatalf("frame = %+v, want goaway", f)
	}
	if f.Away.LastStreamID != 2 {
		t.Fatalf("goaway last stream = %d, want 2", f.Away.LastStreamID)
	}

	// A stream past the goaway line is answered with draining, not
	// dropped.
	streamReq(t, conn, 3, "gemm", 1100)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 3 || f.Resp.Err == nil || f.Resp.Err.Code != ErrCodeDraining {
		t.Fatalf("post-goaway stream answered %+v, want draining on stream 3", f)
	}

	close(release)
	for i := 0; i < 2; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
			t.Fatalf("in-flight stream %d not completed cleanly: %+v", f.StreamID, f)
		}
	}
	conn.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStreamPipelinedStress: several connections, each with hundreds of
// pipelined requests in flight against the credit window, all answered
// exactly once. Run under -race this doubles as the data-race gate on
// the reader/worker/combining-writer machinery.
func TestStreamPipelinedStress(t *testing.T) {
	s := testServer(t, Config{StreamCredit: 32})
	addr := startStreamServer(t, s)

	const conns = 4
	const perConn = 300
	kernels := []string{"gemm", "mvt1", "atax2"}
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sr := wire.NewStreamReader(conn)
			f, err := sr.Next()
			if err != nil || f.Type != wire.TypeCredit {
				t.Errorf("conn %d handshake: %v %+v", ci, err, f)
				return
			}
			credit := int(f.Credit)

			got := make(map[uint64]bool, perConn)
			inflight := 0
			next := uint64(1)
			recv := func() bool {
				f, err := sr.Next()
				if err != nil {
					t.Errorf("conn %d read: %v", ci, err)
					return false
				}
				if f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
					t.Errorf("conn %d stream %d: %+v", ci, f.StreamID, f)
					return false
				}
				if got[f.StreamID] {
					t.Errorf("conn %d stream %d answered twice", ci, f.StreamID)
					return false
				}
				got[f.StreamID] = true
				return true
			}
			for next <= perConn {
				if inflight == credit {
					if !recv() {
						return
					}
					inflight--
				}
				req := wire.Request{
					Region: kernels[int(next)%len(kernels)],
					Names:  []string{"n"},
					Values: []int64{256 + int64(next)%64},
				}
				if _, err := conn.Write(wire.AppendStreamRequest(nil, next, &req)); err != nil {
					t.Errorf("conn %d write: %v", ci, err)
					return
				}
				next++
				inflight++
			}
			for inflight > 0 {
				if !recv() {
					return
				}
				inflight--
			}
			if len(got) != perConn {
				t.Errorf("conn %d: %d of %d streams answered", ci, len(got), perConn)
			}
		}(ci)
	}
	wg.Wait()
	if got := s.met.streamConns.Load(); got != 0 {
		// Connections may still be unwinding; give the gauges a beat.
		time.Sleep(100 * time.Millisecond)
		if got := s.met.streamConns.Load(); got != 0 {
			t.Fatalf("stream connection gauge leaked: %d", got)
		}
	}
}

// TestStreamUpgrade: the HTTP Upgrade path negotiates the same stream
// protocol on the existing port.
func TestStreamUpgrade(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	addr := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		addr, StreamUpgradeProto)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade status = %d, want 101", resp.StatusCode)
	}
	sr := wire.NewStreamReader(br)
	f, err := sr.Next()
	if err != nil || f.Type != wire.TypeCredit {
		t.Fatalf("handshake after upgrade: %v %+v", err, f)
	}
	streamReq(t, conn, 1, "gemm", 1100)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeStreamResponse || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("upgraded stream answered %+v", f)
	}

	// A plain GET without the upgrade token is refused, not hijacked.
	r, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("bare GET /v1/stream = %d, want %d", r.StatusCode, http.StatusUpgradeRequired)
	}
}

// TestStreamCreditReleasedBeforeResponse is the deterministic
// regression test for the stream credit race: a worker must release
// the stream's credit slot before its response becomes visible. With
// a window of one, a client that sends its next frame the moment it
// reads a reply must find that frame admitted, never shed as
// queue_full. The worker is parked right after the send, so the
// ordering is checked without relying on scheduler timing.
func TestStreamCreditReleasedBeforeResponse(t *testing.T) {
	sent := make(chan int64, 1)
	release := make(chan struct{})
	var once sync.Once
	s := testServer(t, Config{StreamCredit: 1})
	s.sentForTest = func() {
		once.Do(func() {
			sent <- s.met.streamInflight.Load()
			<-release
		})
	}
	addr := startStreamServer(t, s)
	conn, sr, credit := dialStream(t, addr)
	if credit != 1 {
		t.Fatalf("credit = %d, want 1", credit)
	}
	var sc *streamConn
	s.streams.mu.Lock()
	for c := range s.streams.conns {
		sc = c
	}
	s.streams.mu.Unlock()

	streamReq(t, conn, 1, "gemm", 256)
	if got := <-sent; got != 0 {
		t.Fatalf("in-flight gauge = %d once the response was sent, want 0", got)
	}
	if got := sc.inflight.Load(); got != 0 {
		t.Fatalf("connection in-flight = %d once the response was sent, want 0", got)
	}
	f, err := sr.Next()
	if err != nil || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("stream 1 answered %+v (%v)", f, err)
	}

	// The worker is still parked after its send. The next frame must be
	// admitted (queued for the worker), not rejected by the reader.
	streamReq(t, conn, 2, "gemm", 512)
	frames := make(chan *wire.Frame, 2)
	go func() {
		for {
			f, err := sr.Next()
			if err != nil {
				close(frames)
				return
			}
			frames <- f
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(sc.jobs) == 0 {
		select {
		case f := <-frames:
			t.Fatalf("stream 2 answered while stream 1's worker was parked: %+v", f.Resp)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("stream 2 neither admitted nor answered")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	f = <-frames
	if f == nil || f.StreamID != 2 || f.Resp.Err != nil {
		t.Fatalf("stream 2 answered %+v, want a verdict", f)
	}
}

// TestShutdownBeforeServe: a Shutdown that runs before Serve or
// ServeStream must make them return promptly instead of accepting
// forever. Run under -race it also covers Serve and Shutdown racing.
func TestShutdownBeforeServe(t *testing.T) {
	serveBoth := func(s *Server) (chan error, net.Listener, net.Listener) {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hl.Close(); sl.Close() })
		done := make(chan error, 2)
		go func() { done <- s.Serve(hl) }()
		go func() { done <- s.ServeStream(sl) }()
		return done, hl, sl
	}
	wait := func(done chan error) {
		t.Helper()
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("serve returned %v, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve/ServeStream still accepting after Shutdown")
			}
		}
	}
	shutdown := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	}

	s := testServer(t, Config{})
	shutdown(s)
	done, hl, sl := serveBoth(s)
	wait(done)
	for _, l := range []net.Listener{hl, sl} {
		if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
			c.Close()
			t.Fatalf("listener %s still open after a post-Shutdown serve", l.Addr())
		}
	}

	// Shutdown racing the serve calls: whichever wins, both return.
	for i := 0; i < 20; i++ {
		s := testServer(t, Config{})
		done, _, _ := serveBoth(s)
		shutdown(s)
		wait(done)
	}
}
