package client

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestHedgeDelayPerTransport is the regression test for hedge-delay
// estimation mixing transports: a client that has switched to the
// stream transport must derive its hedge delay from stream attempt
// latencies, never from the stale HTTP p99 accumulated before the
// switch (and vice versa).
func TestHedgeDelayPerTransport(t *testing.T) {
	c, err := New(Config{
		BaseURL:         "http://127.0.0.1:1",
		Timeout:         time.Second,
		HedgeMinSamples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-switch history: slow HTTP attempts.
	for i := 0; i < 64; i++ {
		c.latHTTP.observe(40 * time.Millisecond)
	}
	if d := c.hedgeDelay(true, false); d != 40*time.Millisecond {
		t.Fatalf("http hedge delay = %v, want 40ms from the http sampler", d)
	}
	// No stream samples yet: stream hedging must stay off, not fire at
	// the HTTP transport's 40ms.
	if d := c.hedgeDelay(true, true); d != 0 {
		t.Fatalf("stream hedge delay with no stream samples = %v, want 0", d)
	}

	// Post-switch: fast stream attempts. The stream hedge derives from
	// them (clamped at the 500µs floor), while the HTTP estimate is
	// untouched.
	for i := 0; i < 64; i++ {
		c.latStream.observe(1 * time.Millisecond)
	}
	if d := c.hedgeDelay(true, true); d != 1*time.Millisecond {
		t.Fatalf("stream hedge delay = %v, want 1ms from the stream sampler", d)
	}
	if d := c.hedgeDelay(true, false); d != 40*time.Millisecond {
		t.Fatalf("http hedge delay after stream traffic = %v, want 40ms still", d)
	}

	// Clamps still apply per transport: a sub-floor stream p99 hedges at
	// the 500µs floor instead of doubling load immediately.
	fast, err := New(Config{BaseURL: "http://127.0.0.1:1", Timeout: time.Second, HedgeMinSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fast.latStream.observe(50 * time.Microsecond)
	}
	if d := fast.hedgeDelay(true, true); d != 500*time.Microsecond {
		t.Fatalf("clamped stream hedge delay = %v, want 500µs floor", d)
	}
}

// stubRunner drives the hedge race with scripted primary and hedge
// runs.
type stubRunner struct {
	primary, hedge func(ctx context.Context) stubOut
}

type stubOut struct {
	who string
	err error
}

func (o stubOut) ok() bool { return o.err == nil }

func (s stubRunner) run(ctx context.Context, hedge bool) stubOut {
	if hedge {
		return s.hedge(ctx)
	}
	return s.primary(ctx)
}

var errStub = errors.New("stub attempt failed")

// waitFor receives from ch or fails the test after a generous bound.
func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestRacePrimaryWinCancelsHedge: a primary that finishes after the
// hedge started wins, and its return cancels the hedge's context.
func TestRacePrimaryWinCancelsHedge(t *testing.T) {
	started := make(chan struct{})
	hedgeErr := make(chan error, 1)
	var hedges atomic.Uint64
	out, hedged, launched, err := race(context.Background(), time.Millisecond, time.Minute, &hedges, stubRunner{
		primary: func(ctx context.Context) stubOut {
			waitFor(t, started, "the hedge to start")
			return stubOut{who: "primary"}
		},
		hedge: func(ctx context.Context) stubOut {
			close(started)
			<-ctx.Done()
			hedgeErr <- ctx.Err()
			return stubOut{who: "hedge", err: ctx.Err()}
		},
	})
	if err != nil || hedged || launched != 2 || out.who != "primary" {
		t.Fatalf("race = (%+v, hedged %v, launched %d, %v), want the primary's win with 2 runs", out, hedged, launched, err)
	}
	if got := waitFor(t, hedgeErr, "the hedge's cancellation"); !errors.Is(got, context.Canceled) {
		t.Fatalf("hedge context ended with %v, want context.Canceled", got)
	}
	if hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", hedges.Load())
	}
}

// TestRaceNoHedgeAfterPrimaryReturns: once the primary has returned,
// the hedge timer never starts a run.
func TestRaceNoHedgeAfterPrimaryReturns(t *testing.T) {
	// Delays this short often fire while the primary returns: the
	// start/finish handshake must still refuse any hedge the race did
	// not report as started.
	ran := make([]atomic.Bool, 200)
	started := make([]bool, len(ran))
	for i := range ran {
		var hedges atomic.Uint64
		out, hedged, launched, err := race(context.Background(), time.Duration(1+i%8)*time.Microsecond,
			time.Minute, &hedges, stubRunner{
				primary: func(context.Context) stubOut { return stubOut{who: "primary"} },
				hedge: func(context.Context) stubOut {
					ran[i].Store(true)
					return stubOut{who: "hedge"}
				},
			})
		if err != nil || hedged || out.who != "primary" {
			t.Fatalf("run %d: race = (%+v, hedged %v, %v), want the primary", i, out, hedged, err)
		}
		started[i] = launched == 2
	}
	time.Sleep(20 * time.Millisecond)
	for i := range ran {
		if ran[i].Load() && !started[i] {
			t.Fatalf("run %d: a hedge ran after the race reported none started", i)
		}
	}

	var hedges atomic.Uint64
	var late atomic.Bool
	out, _, launched, _ := race(context.Background(), 20*time.Millisecond, time.Minute, &hedges, stubRunner{
		primary: func(context.Context) stubOut { return stubOut{who: "primary"} },
		hedge: func(context.Context) stubOut {
			late.Store(true)
			return stubOut{who: "hedge"}
		},
	})
	time.Sleep(60 * time.Millisecond)
	if out.who != "primary" || launched != 1 || late.Load() || hedges.Load() != 0 {
		t.Fatalf("hedge started after the primary returned (launched %d, ran %v, hedges %d)",
			launched, late.Load(), hedges.Load())
	}
}

// TestRaceHedgeWinCancelsPrimary: a hedge that succeeds first is
// reported as the hedge's win and cancels the primary's context.
func TestRaceHedgeWinCancelsPrimary(t *testing.T) {
	primaryErr := make(chan error, 1)
	var hedges atomic.Uint64
	out, hedged, launched, err := race(context.Background(), time.Millisecond, time.Minute, &hedges, stubRunner{
		primary: func(ctx context.Context) stubOut {
			<-ctx.Done()
			primaryErr <- ctx.Err()
			return stubOut{who: "primary", err: ctx.Err()}
		},
		hedge: func(context.Context) stubOut { return stubOut{who: "hedge"} },
	})
	if err != nil || !hedged || launched != 2 || out.who != "hedge" {
		t.Fatalf("race = (%+v, hedged %v, launched %d, %v), want the hedge's win", out, hedged, launched, err)
	}
	if got := waitFor(t, primaryErr, "the primary's cancellation"); !errors.Is(got, context.Canceled) {
		t.Fatalf("primary context ended with %v, want context.Canceled", got)
	}

	if hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", hedges.Load())
	}
}

// TestRaceFailedPrimaryWaitsForHedge: a primary that fails while a
// hedge is in flight waits for the hedge; if the hedge also fails, the
// primary's failure is the one reported.
func TestRaceFailedPrimaryWaitsForHedge(t *testing.T) {
	for _, hedgeFails := range []bool{false, true} {
		started := make(chan struct{})
		release := make(chan struct{})
		type result struct {
			out    stubOut
			hedged bool
			runs   int
			err    error
		}
		done := make(chan result, 1)
		var hedges atomic.Uint64
		go func() {
			out, hedged, runs, err := race(context.Background(), time.Millisecond, time.Minute, &hedges, stubRunner{
				primary: func(context.Context) stubOut {
					<-started
					return stubOut{who: "primary", err: errStub}
				},
				hedge: func(context.Context) stubOut {
					close(started)
					<-release
					if hedgeFails {
						return stubOut{who: "hedge", err: errors.New("hedge failed too")}
					}
					return stubOut{who: "hedge"}
				},
			})
			done <- result{out, hedged, runs, err}
		}()
		<-started
		close(release)
		r := waitFor(t, done, "the race")
		if r.err != nil || r.runs != 2 {
			t.Fatalf("hedgeFails=%v: race = %+v", hedgeFails, r)
		}
		if hedgeFails {
			if r.hedged || r.out.who != "primary" || !errors.Is(r.out.err, errStub) {
				t.Fatalf("both failed: race reported %+v, want the primary's failure", r)
			}
		} else if !r.hedged || r.out.who != "hedge" || r.out.err != nil {
			t.Fatalf("race reported %+v, want the in-flight hedge's success", r)
		}
	}
}

// TestRaceCallerCancelReturnsPromptly: cancelling the caller's context
// ends the race promptly with ctx.Err(), hedge in flight or not.
func TestRaceCallerCancelReturnsPromptly(t *testing.T) {
	for _, delay := range []time.Duration{time.Millisecond, time.Hour} {
		ctx, cancel := context.WithCancel(context.Background())
		blocked := make(chan struct{}, 2)
		block := func(ctx context.Context) stubOut {
			blocked <- struct{}{}
			<-ctx.Done()
			return stubOut{err: ctx.Err()}
		}
		done := make(chan error, 1)
		var hedges atomic.Uint64
		go func() {
			_, _, _, err := race(ctx, delay, time.Minute, &hedges, stubRunner{primary: block, hedge: block})
			done <- err
		}()
		waitFor(t, blocked, "the primary to start")
		if delay == time.Millisecond {
			waitFor(t, blocked, "the hedge to start")
		}
		cancel()
		if err := waitFor(t, done, "the race after cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: race returned %v, want context.Canceled", delay, err)
		}
	}
}

// TestRaceRunsOwnDeadline: every run gets its own context carrying the
// attempt deadline.
func TestRaceRunsOwnDeadline(t *testing.T) {
	var hedges atomic.Uint64
	check := func(ctx context.Context) stubOut {
		if _, ok := ctx.Deadline(); !ok {
			return stubOut{err: errors.New("run context has no deadline")}
		}
		return stubOut{}
	}
	for _, delay := range []time.Duration{0, time.Hour} {
		if out, _, _, _ := race(context.Background(), delay, time.Minute, &hedges, stubRunner{primary: check, hedge: check}); out.err != nil {
			t.Fatalf("delay %v: %v", delay, out.err)
		}
	}
}
