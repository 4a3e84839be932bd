package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// counters is one snapshot of the program's own counters, summed over
// replicas. Two snapshots around a window give the window's deltas.
type counters struct {
	requests, retries, hedges, hedgeWins, coalesced, sheds uint64
	// fallbacks counts verdicts that left the workload's transport:
	// stream and wire fallbacks, sticky downgrades, and in-process
	// fallback verdicts.
	fallbacks uint64

	cacheHits, cacheMisses, evictions, predictions, compiled uint64

	prom map[string]float64 // /metrics samples, keyed by series

	auditSamples, auditDropped uint64
	learned, analytical        uint64
	confident                  int
	exchanges                  uint64
	cluster                    client.ClusterMetrics
}

func (cs *counters) addClient(m client.Metrics) {
	cs.requests += m.Requests
	cs.retries += m.Retries
	cs.hedges += m.Hedges
	cs.hedgeWins += m.HedgeWins
	cs.coalesced += m.Coalesced
	cs.sheds += m.Sheds
	cs.fallbacks += m.StreamFallbacks + m.StreamDowngrades + m.WireDowngrades + m.Fallbacks
}

func (cs *counters) addRuntime(m offload.Metrics) {
	cs.cacheHits += m.DecisionCacheHits
	cs.cacheMisses += m.DecisionCacheMisses
	cs.evictions += m.DecisionCacheEvictions
	cs.predictions += m.Predictions
	cs.compiled += m.CompiledModelEvals
}

// scrape adds one daemon's /metrics samples.
func (cs *counters) scrape(ctx context.Context, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %d", baseURL, resp.StatusCode)
	}
	if cs.prom == nil {
		cs.prom = map[string]float64{}
	}
	return parseProm(resp.Body, cs.prom)
}

// parseProm adds every sample of a Prometheus text exposition into into,
// keyed by the series name with its labels as written.
func parseProm(r io.Reader, into map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		into[line[:i]] += v
	}
	return sc.Err()
}

// promDelta is one series' increase between two snapshots.
func promDelta(a, b counters, series string) float64 { return b.prom[series] - a.prom[series] }

// histQuantile estimates quantile q of a Prometheus histogram's
// increase between two snapshots, interpolating linearly inside the
// bucket that holds it, as histogram_quantile does. It returns seconds,
// or 0 when the histogram saw nothing.
func histQuantile(a, b counters, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series, v := range b.prom {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := math.Inf(1)
		if s := strings.TrimSuffix(series[len(prefix):], `"}`); s != "+Inf" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - a.prom[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, bk := range bs {
		if bk.cum >= rank {
			if math.IsInf(bk.le, 1) {
				return lo
			}
			if bk.cum == below {
				return bk.le
			}
			return lo + (bk.le-lo)*(rank-below)/(bk.cum-below)
		}
		lo, below = bk.le, bk.cum
	}
	return lo
}

// keyHash is the slot-form key hash of a size-n binding.
func keyHash(n int64) uint64 { return attrdb.BindingsHash(symbolic.Bindings{"n": n}) }

func jsonBody(req server.DecideRequest) ([]byte, error) { return json.Marshal(req) }

// postJSON posts one JSON decide to /v2/decide and decodes the answer.
func postJSON(ctx context.Context, hc *http.Client, baseURL string, body []byte, out *server.DecideResponseV2) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v2/decide", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v2/decide: status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// postFrame posts one binary frame body to /v2/decide and decodes the
// single frame that answers it.
func postFrame(ctx context.Context, hc *http.Client, baseURL string, body []byte) (*wire.Frame, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v2/decide", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v2/decide (frame): status %d", resp.StatusCode)
	}
	f, n, err := wire.DecodeFrame(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("POST /v2/decide (frame): %d trailing bytes", len(data)-n)
	}
	return f, nil
}

// wireVerdict projects a wire response onto the JSON response shape, as
// the client does, so the checks and the JSON codec pass read one type.
func wireVerdict(r *wire.Response) server.DecideResponseV2 {
	v := server.DecideResponseV2{
		Region: r.Region, Verdict: r.Verdict, Kind: r.Kind, Policy: r.Policy,
		Provenance: r.Provenance, SplitFraction: r.SplitFraction, CacheHit: r.CacheHit,
		ActualSeconds: r.ActualSeconds, DecisionNanos: r.DecisionNanos,
	}
	for _, c := range r.Candidates {
		kind := offload.KindCPU
		if c.Kind == "gpu" {
			kind = offload.KindGPU
		}
		v.Candidates = append(v.Candidates, offload.Candidate{
			Target: c.Target, Kind: kind, PredSeconds: c.PredSeconds, CalSeconds: c.CalSeconds,
		})
	}
	if r.Err != nil {
		v.Error = &server.ErrorInfo{Code: r.Err.Code, Message: r.Err.Message}
	}
	return v
}

// wireResponse projects a JSON response onto the wire shape, for the
// stream codec pass on a JSON mix.
func wireResponse(v *server.DecideResponseV2) *wire.Response {
	r := &wire.Response{
		Region: v.Region, Verdict: v.Verdict, Kind: v.Kind, Policy: v.Policy,
		Provenance: v.Provenance, SplitFraction: v.SplitFraction, CacheHit: v.CacheHit,
		ActualSeconds: v.ActualSeconds, DecisionNanos: v.DecisionNanos,
	}
	for _, c := range v.Candidates {
		r.Candidates = append(r.Candidates, wire.Candidate{
			Target: c.Target, Kind: c.Kind.String(), PredSeconds: c.PredSeconds, CalSeconds: c.CalSeconds,
		})
	}
	return r
}
