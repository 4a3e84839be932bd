package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one timed slice of a run. Calls are attributed to the
// window they started in.
type window struct {
	lat       *hist // per-call latency, ns
	calls     int
	decisions int
	failed    int
	owned     int
	dur       time.Duration
	cpu       time.Duration // process user+system CPU
	traced    bool
}

// newCallers splits the stream into n equal segments, one per caller.
func newCallers(s *stream, n int) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = newCaller(i, s, i*len(s.Seq)/n, (i+1)*len(s.Seq)/n)
	}
	return cs
}

// drive runs the callers closed-loop through n windows of length d.
// Every caller sends its next call only when the previous one returned,
// like a launch site waiting for its verdict. When tr is set, calls in
// the windows traced selects are recorded as spans.
func drive(ctx context.Context, r rig, cs []*caller, n int, d time.Duration, tr *tracer, traced func(int) bool) []window {
	var cur atomic.Int64
	per := make([][]window, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		per[i] = make([]window, n)
		for w := range per[i] {
			per[i][w].lat = new(hist)
		}
		wg.Add(1)
		go func(c *caller, ws []window) {
			defer wg.Done()
			for {
				w := int(cur.Load())
				if w >= n || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				out := r.call(ctx, c)
				el := time.Since(t0)
				st := &ws[w]
				st.lat.add(int64(el))
				st.calls++
				st.decisions += out.decisions
				st.failed += out.failed
				st.owned += out.owned
				if tr != nil && traced(w) {
					tr.call(c.id, spanCall, t0, el, out.dn)
				}
			}
		}(c, per[i])
	}
	ws := make([]window, n)
	for w := range ws {
		ws[w].lat = new(hist)
	}
	for w := 0; w < n; w++ {
		t0, c0 := time.Now(), cpuTime()
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		ws[w].dur, ws[w].cpu = time.Since(t0), cpuTime()-c0
		ws[w].traced = traced != nil && traced(w)
		cur.Store(int64(w + 1))
	}
	wg.Wait()
	for _, pw := range per {
		for w := range pw {
			ws[w].lat.merge(pw[w].lat)
			ws[w].calls += pw[w].calls
			ws[w].decisions += pw[w].decisions
			ws[w].failed += pw[w].failed
			ws[w].owned += pw[w].owned
		}
	}
	return ws
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ------------------------------------------------------------ statistics --

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perOp times f in rounds of n calls for about budget and returns the
// median over rounds of the nanoseconds per call. Rounds keep the
// clock's own cost out of sub-microsecond timings; the median keeps a
// preempted round from moving the result. Each round is recorded as a
// span named label.
func (t *tracer) perOp(label string, budget time.Duration, n int, f func(i int)) float64 {
	var rounds []float64
	i := 0
	for start := time.Now(); len(rounds) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			f(i)
			i++
		}
		el := time.Since(t0)
		t.pass(label, t0, el)
		rounds = append(rounds, float64(el.Nanoseconds())/float64(n))
	}
	return median(rounds)
}
