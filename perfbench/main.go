// Command perfbench is the repository's benchmark: it stands up
// hybridseld's serving stack in-process, drives it through the public
// client surfaces (client.Client, client.ClusterClient) with closed-loop
// callers, checks every verdict against a reference runtime, and prints
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// The last line of standard output is one JSON result.
//
//	bash perfbench/run.sh --workload stream_hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare parent-runs/ change-runs/
//
// See perfbench/README.md for the workloads, the metrics and how each
// is measured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

const (
	// setupReps is how many times an untraced run sets the service up;
	// setup_s is the median.
	setupReps = 21
	// warmup runs the callers before timing, so caches fill, pools and
	// hedge samplers settle, and the heap reaches its working size.
	warmup = time.Second
	// windowLen is the length of one timed window; a run measures
	// --seconds of them.
	windowLen = time.Second
	// deadline stops a run that hangs, well inside the 180 s a run may
	// take.
	deadline = 170 * time.Second
)

// ballast is a fixed floor under the collector's heap goal. The
// service, its clients and the load all share this process, whose live
// heap is a few MiB on the hot and cold mixes; without a floor the
// collector then runs a hundred times a second, and which calls a cycle
// catches becomes most of call_p99_us and most of its run-to-run
// spread. A fixed floor makes the collector's pace the same on every
// run and every workload. The pages are never written, so they cost no
// memory, and the ballast is dropped before heap_mb is measured.
var ballast []byte

const ballastBytes = 32 << 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: stream_hot|batch_cold|cluster_learn")
	seed := fs.Int64("seed", 1, "seed of the generated request stream")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	traceOn := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	_ = fs.Parse(os.Args[1:])

	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		if err == nil {
			err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ballast = make([]byte, ballastBytes)
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	callers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if w.callers > 0 {
		callers = min(callers, w.callers)
	}
	rn := &runner{w: w, seed: *seed, seconds: *seconds, callers: callers}
	var res result
	if *traceOn == 1 {
		res, err = rn.traced(context.Background())
	} else {
		res, err = rn.untraced(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{"env": rn.env(*traceOn == 1)})
	fmt.Println(string(env))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runner is one run of one workload.
type runner struct {
	w       workload
	seed    int64
	seconds int
	callers int

	s     stream
	exp   *expectations
	eval  *evalSet // cluster_learn only
	owner []uint8  // cluster_learn only: each key's ring owner
}

// prepare generates the request stream and the reference verdicts.
// Nothing here is part of the service's set-up or of the timed window.
func (rn *runner) prepare() error {
	rn.s = rn.w.gen(rn.seed)
	ref, err := newRuntime(rn.w.spec, -1, nil)
	if err != nil {
		return err
	}
	if rn.exp, err = buildExpectations(ref, rn.s.Keys, rn.w.learning); err != nil {
		return err
	}
	if rn.w.learning {
		if rn.owner, err = ringOwners(rn.s.Keys); err != nil {
			return err
		}
		rn.eval, err = newEvalSet(ref)
	}
	return err
}

// setup stands the workload's service up and returns it once it has
// served its first correct verdict, with the time that took.
func (rn *runner) setup(ctx context.Context) (rig, time.Duration, error) {
	t0 := time.Now()
	r, err := rn.w.setup(rn)
	if err != nil {
		return nil, 0, err
	}
	c := newCaller(0, &rn.s, 0, len(rn.s.Seq))
	if out := r.call(ctx, c); out.failed > 0 {
		r.close()
		return nil, 0, fmt.Errorf("first verdict: %w", c.err)
	}
	return r, time.Since(t0), nil
}

// untraced measures the end-to-end metrics.
func (rn *runner) untraced(ctx context.Context) (result, error) {
	if err := rn.prepare(); err != nil {
		return result{}, err
	}
	var setups []float64
	var r rig
	for i := 0; i < setupReps; i++ {
		rr, el, err := rn.setup(ctx)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, el.Seconds())
		if i < setupReps-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()

	cs := newCallers(&rn.s, rn.callers)
	drive(ctx, r, cs, 1, warmup, nil, nil)
	ws := drive(ctx, r, cs, rn.seconds, windowLen, nil, nil)

	e2e := summarize(ws)
	fmt.Printf("perfbench %s seed=%d seconds=%d callers=%d (closed loop)\n", rn.w.name, rn.seed, rn.seconds, rn.callers)
	fmt.Printf("  correct decisions/s by window:")
	for _, w := range ws {
		fmt.Printf(" %.0f", float64(w.decisions-w.failed)/w.dur.Seconds())
	}
	fmt.Println()
	// The latency samples are the benchmark's, not the service's: let
	// them go before the heap is measured.
	ws = nil
	attempted, failed := e2e.decisions, e2e.failed
	var q evalResult
	if lr, ok := r.(*learnRig); ok {
		lr.drainAudits()
		q = rn.eval.run(ctx, lr)
		attempted += q.attempted
		failed += q.failed
	}
	heap := liveHeapMiB()
	firstErr := firstError(cs, q.err)

	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metricValue{
			"setup_s":             {median(setups), "s"},
			"decisions_per_s":     {e2e.decisionsPerS, "1/s"},
			"call_p50_us":         {e2e.p50us, "us"},
			"cpu_us_per_decision": {e2e.cpuUsPerDecision, "us"},
			"heap_mb":             {heap, "MiB"},
		},
	}
	fmt.Printf("  setup_s runs: %v\n", setups)
	fmt.Printf("  calls=%d decisions=%d; %s\n", e2e.calls, e2e.decisions, e2e.p99note)
	printMetrics(res.Metrics, endToEnd)
	fmt.Printf("  %-32s %.6g us\n", "call_p99_us", e2e.p99us)
	fmt.Printf("  %-32s %.4f %%  (%d of %d verdicts failed or wrong)\n", "error_pct", 100*ratio(float64(failed), float64(attempted)), failed, attempted)
	if rn.eval != nil {
		fmt.Printf("  %-32s %.4f %%\n  %-32s %.4f %%\n", "regret_pct", q.regretPct, "mispredict_pct", q.mispredictPct)
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", firstErr)
	}
	return res, nil
}

// e2eSummary is the end-to-end view of a run's windows.
type e2eSummary struct {
	calls, decisions, failed, owned int
	decisionsPerS, p50us, p99us     float64
	cpuUsPerDecision                float64
	p99note                         string
}

// minP99Samples is the smallest window whose own p99 has ten samples
// beyond it.
const minP99Samples = 1000

// summarize reduces windows to the end-to-end metrics: throughput and
// CPU per decision are medians over windows; p50 pools every call; p99
// is the median of per-window p99s when every window has at least ten
// samples beyond its p99, and pooled otherwise.
func summarize(ws []window) e2eSummary {
	var s e2eSummary
	var tput, cpu, p99s []float64
	var all hist
	minWin := math.MaxInt
	for _, w := range ws {
		s.calls += w.calls
		s.decisions += w.decisions
		s.failed += w.failed
		s.owned += w.owned
		tput = append(tput, float64(w.decisions-w.failed)/w.dur.Seconds())
		cpu = append(cpu, ratio(float64(w.cpu.Microseconds()), float64(w.decisions)))
		p99s = append(p99s, w.lat.quantile(0.99))
		all.merge(w.lat)
		minWin = min(minWin, w.lat.n)
	}
	s.decisionsPerS = median(tput)
	s.cpuUsPerDecision = median(cpu)
	s.p50us = all.quantile(0.5) / 1e3
	if minWin >= minP99Samples {
		s.p99us = median(p99s) / 1e3
		s.p99note = fmt.Sprintf("p99 = median of %d window p99s, >= %d samples beyond each", len(ws), minWin/100)
	} else {
		s.p99us = all.quantile(0.99) / 1e3
		s.p99note = fmt.Sprintf("p99 pooled over %d calls, %d samples beyond it", all.n, all.n/100)
	}
	return s
}

func liveHeapMiB() float64 {
	ballast = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func firstError(cs []*caller, extra error) error {
	for _, c := range cs {
		if c.err != nil {
			return c.err
		}
	}
	return extra
}

func printMetrics(ms map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-32s %.6g %s\n", d.name, ms[d.name].Value, d.unit)
	}
}

// env describes where the run was measured.
func (rn *runner) env(traced bool) map[string]any {
	return map[string]any{
		"workload":   rn.w.name,
		"seed":       rn.seed,
		"seconds":    rn.seconds,
		"trace":      traced,
		"callers":    rn.callers,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor model name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ------------------------------------------------------------ evaluation --

// evalSet is cluster_learn's fixed evaluation keys with their
// reference verdicts and ground truth, measured before set-up.
type evalSet struct {
	keys   []key
	exp    *expectations
	actual [][]float64 // per key, simulated seconds per target in registry order
}

// evalSizes are the sizes every region is evaluated at. The small ones
// are where the analytical models mispredict most often.
var evalSizes = []int64{32, 128, 512, 2048}

func newEvalSet(ref *offload.Runtime) (*evalSet, error) {
	e := &evalSet{}
	for _, region := range regionNames() {
		for _, n := range evalSizes {
			e.keys = append(e.keys, key{region, n})
		}
	}
	var err error
	if e.exp, err = buildExpectations(ref, e.keys, true); err != nil {
		return nil, err
	}
	for _, k := range e.keys {
		row := make([]float64, len(e.exp.ids))
		for t, id := range e.exp.ids {
			if row[t], err = ref.ExecuteTarget(k.Region, id, symbolic.Bindings{"n": k.N}); err != nil {
				return nil, fmt.Errorf("ground truth for %s n=%d on %s: %w", k.Region, k.N, id, err)
			}
		}
		e.actual = append(e.actual, row)
	}
	return e, nil
}

// evalResult scores the drained cluster's verdicts on the evaluation
// keys against ground truth.
type evalResult struct {
	attempted, failed        int
	regretPct, mispredictPct float64
	err                      error
}

func (e *evalSet) run(ctx context.Context, lr *learnRig) evalResult {
	var q evalResult
	var regret, best float64
	mis := 0
	for i, k := range e.keys {
		q.attempted++
		v, err := lr.cc.Decide(ctx, server.DecideRequest{Region: k.Region, Bindings: bindings(k.N)})
		if err == nil {
			err = e.exp.check(i, &v.Response)
		}
		if err != nil {
			q.failed++
			if q.err == nil {
				q.err = fmt.Errorf("evaluation verdict: %w", err)
			}
			continue
		}
		row := e.actual[i]
		b := 0
		for t := range row {
			if row[t] < row[b] {
				b = t
			}
		}
		chosen := e.exp.index[v.Response.Verdict]
		if chosen != b {
			mis++
		}
		regret += row[chosen] - row[b]
		best += row[b]
	}
	q.regretPct = 100 * ratio(regret, best)
	q.mispredictPct = 100 * ratio(float64(mis), float64(q.attempted-q.failed))
	return q
}
