package hybridsel

// The serve benchmarks measure end-to-end decide throughput over a
// live server — request encode, admission, decision (cached steady
// state), response encode — across the transports: JSON and binary
// frames on /v2/decide (single and 64-item batched), and the
// persistent multiplexed stream transport (single in-flight and 64
// pipelined). scripts/bench.sh freezes the results into
// BENCH_serve.json; the machine-independent headlines are the
// binary-vs-JSON and stream-vs-JSON decisions/s ratios, which
// scripts/check.sh gates. Per-request p50/p99 latencies ride along as
// custom metrics for the curious.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// serveBenchSizes gives each kernel a few distinct problem sizes, so
// the ring exercises the decision cache the way steady-state serving
// does (mostly hits across a working set, not one hot key).
var serveBenchSizes = []int64{256, 512, 1100, 2048}

func serveBenchServer(b *testing.B) (string, *http.Client) {
	b.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100()})
	for _, name := range decideKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
	}}
	return ts.URL + "/v2/decide", client
}

// serveBenchRequests is the shared request ring: every kernel at every
// size, in order.
func serveBenchRequests() []server.DecideRequest {
	reqs := make([]server.DecideRequest, 0, len(decideKernels)*len(serveBenchSizes))
	for _, name := range decideKernels {
		for _, n := range serveBenchSizes {
			reqs = append(reqs, server.DecideRequest{
				Region: name, Bindings: map[string]int64{"n": n},
			})
		}
	}
	return reqs
}

func jsonSingleBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

func wireSingleBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		wr := wireBenchRequest(req)
		bodies[i] = wire.AppendRequest(nil, &wr)
	}
	return bodies
}

// wireBenchRequest uses the slot form: every decide kernel has the
// single parameter "n", so the hash is the daemon's own key convention.
func wireBenchRequest(req server.DecideRequest) wire.Request {
	return wire.Request{
		Region:   req.Region,
		SlotForm: true,
		KeyHash:  attrdb.BindingsHash(symbolic.Bindings(req.Bindings)),
		Values:   []int64{req.Bindings["n"]},
	}
}

const serveBenchBatch = 64

func jsonBatchBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		window := make([]server.DecideRequest, serveBenchBatch)
		for j := range window {
			window[j] = reqs[(i+j)%len(reqs)]
		}
		body, err := json.Marshal(struct {
			Requests []server.DecideRequest `json:"requests"`
		}{window})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

func wireBatchBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		window := make([]wire.Request, serveBenchBatch)
		for j := range window {
			window[j] = wireBenchRequest(reqs[(i+j)%len(reqs)])
		}
		bodies[i] = wire.AppendBatchRequest(nil, window)
	}
	return bodies
}

// runServeBench posts the body ring at the server back-to-back and
// reports decisions/s plus per-request p50/p99 latency.
func runServeBench(b *testing.B, client *http.Client, url, contentType string, bodies [][]byte, perCall int) {
	// Warm the decision cache and the connection pool off the clock.
	for i := 0; i < len(bodies); i++ {
		serveBenchPost(b, client, url, contentType, bodies[i])
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		serveBenchPost(b, client, url, contentType, bodies[i%len(bodies)])
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds()), "p99-ns")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*perCall)/sec, "decisions/s")
	}
}

func serveBenchPost(b *testing.B, client *http.Client, url, contentType string, body []byte) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
}

// serveBenchStreamConn starts the same server with a raw stream
// listener and dials one persistent connection at it.
func serveBenchStreamConn(b *testing.B) *client.StreamConn {
	b.Helper()
	_, addr := serveBenchStreamServer(b)
	sc, err := client.DialStream(client.StreamDialConfig{Addr: addr})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sc.Close() })
	return sc
}

// serveBenchStreamServer starts the bench server on both an HTTP port
// and a raw stream listener and returns (base URL, stream address).
func serveBenchStreamServer(b *testing.B) (string, string) {
	b.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100()})
	for _, name := range decideKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeStream(l)
	b.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts.URL, l.Addr().String()
}

// runStreamBench drives the request ring over one stream connection,
// `window` decisions in flight at a time, and reports decisions/s plus
// per-decision p50/p99 latency.
func runStreamBench(b *testing.B, sc *client.StreamConn, window int) {
	reqs := serveBenchRequests()
	wrs := make([]wire.Request, len(reqs))
	for i, req := range reqs {
		wrs[i] = wireBenchRequest(req)
	}
	ctx := context.Background()
	decide := func(i int) time.Duration {
		start := time.Now()
		resp, err := sc.Decide(ctx, &wrs[i%len(wrs)])
		if err != nil {
			b.Fatal(err)
		}
		if resp.Err != nil {
			b.Fatalf("stream error: %s %s", resp.Err.Code, resp.Err.Message)
		}
		return time.Since(start)
	}
	// Warm the decision cache off the clock.
	for i := range wrs {
		decide(i)
	}
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if window <= 1 {
		for i := 0; i < b.N; i++ {
			lat[i] = decide(i)
		}
	} else {
		var wg sync.WaitGroup
		for base := 0; base < b.N; base += window {
			n := min(window, b.N-base)
			wg.Add(n)
			for j := 0; j < n; j++ {
				go func(i int) {
					defer wg.Done()
					lat[i] = decide(i)
				}(base + j)
			}
			wg.Wait()
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds()), "p99-ns")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}

func BenchmarkServeJSONSingle(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, "application/json", jsonSingleBodies(b), 1)
}

func BenchmarkServeBinarySingle(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, wire.ContentType, wireSingleBodies(b), 1)
}

func BenchmarkServeJSONBatch64(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, "application/json", jsonBatchBodies(b), serveBenchBatch)
}

func BenchmarkServeBinaryBatch64(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, wire.ContentType, wireBatchBodies(b), serveBenchBatch)
}

// BenchmarkServeStreamSingle is one decision in flight over one
// persistent connection — the latency-bound view of the stream
// transport, directly comparable to BenchmarkServeJSONSingle.
func BenchmarkServeStreamSingle(b *testing.B) {
	runStreamBench(b, serveBenchStreamConn(b), 1)
}

// BenchmarkServeStreamPipelined64 keeps a full credit window (64
// streams) in flight on one connection — the throughput-bound view.
func BenchmarkServeStreamPipelined64(b *testing.B) {
	runStreamBench(b, serveBenchStreamConn(b), serveBenchBatch)
}

// BenchmarkClientDecideStream is one resilient client.Client.Decide in
// flight over the stream transport, with the default retry, breaker
// and p99-derived hedging pipeline armed: the client layer's cost on
// top of BenchmarkServeStreamSingle's raw connection round trip.
func BenchmarkClientDecideStream(b *testing.B) {
	url, addr := serveBenchStreamServer(b)
	cl, err := client.New(client.Config{
		BaseURL:      url,
		Stream:       true,
		StreamAddr:   addr,
		StreamConns:  1,
		RegionParams: func(string) []string { return []string{"n"} },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	reqs := serveBenchRequests()
	ctx := context.Background()
	decide := func(i int) time.Duration {
		start := time.Now()
		v, err := cl.Decide(ctx, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		if v.Transport != client.TransportStream || v.Response.Error != nil {
			b.Fatalf("verdict served over %s: %+v", v.Transport, v.Response.Error)
		}
		return time.Since(start)
	}
	// Warm the decision cache and the hedge-delay sampler off the clock.
	for i := 0; i < 4*client.DefaultHedgeMinSamples; i++ {
		decide(i)
	}
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat[i] = decide(i)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds()), "p99-ns")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}
