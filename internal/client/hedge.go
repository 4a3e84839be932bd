package client

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the one hedge race shared by Client (a duplicate attempt
// at the same daemon) and ClusterClient (a duplicate call at the ring
// owner's successor).

// outcome is one run's result as the race sees it: a success ends the
// race, a failure may be rescued by the other run.
type outcome interface {
	ok() bool
}

// runner is the work the race may run twice: once as the primary and,
// after the hedge delay, once as the hedge. ctx is the run's own
// context; the race cancels it when the other run wins.
type runner[R outcome] interface {
	run(ctx context.Context, hedge bool) R
}

// race runs a.run under the hedging policy:
//
//   - the primary runs on the caller's goroutine, so a call that
//     finishes before the hedge delay costs no goroutine handoff;
//   - after delay (0 = no hedge) time.AfterFunc starts the hedge on the
//     timer's goroutine, unless the primary has already returned;
//   - the first success wins and cancels the other run's context;
//   - a failed primary waits for a hedge already in flight, and when
//     both fail the primary's failure is reported (the hedge's is
//     usually a cancellation echo);
//   - the caller's ctx ending while the race waits returns ctx.Err().
//
// Each run owns exactly one context derived from ctx: WithTimeout when
// timeout > 0 (the attempt deadline), WithCancel otherwise. An unhedged
// run with no timeout uses ctx itself. hedges counts hedges started.
// race returns the reported outcome, whether the hedge produced it, and
// how many runs were started.
func race[R outcome, A runner[R]](ctx context.Context, delay, timeout time.Duration,
	hedges *atomic.Uint64, a A) (out R, hedged bool, launched int, err error) {
	if delay <= 0 && timeout <= 0 {
		return a.run(ctx, false), false, 1, nil
	}
	pctx, pcancel := runContext(ctx, timeout)
	defer pcancel()
	if delay <= 0 {
		return a.run(pctx, false), false, 1, nil
	}
	h := &hedgeRun[R]{}
	t := time.AfterFunc(delay, func() {
		hctx, ok := h.start(ctx, timeout)
		if !ok {
			return
		}
		hedges.Add(1)
		hout := a.run(hctx, true)
		if hout.ok() {
			pcancel()
		}
		h.cancel()
		h.done <- hout
	})
	out = a.run(pctx, false)
	t.Stop()
	done, hcancel := h.finish()
	switch {
	case done == nil && out.ok():
		return out, false, 1, nil
	case done == nil:
		// No hedge started, and none will.
		return out, false, 1, ctx.Err()
	case out.ok():
		hcancel()
		return out, false, 2, nil
	}
	select {
	case hout := <-done:
		if hout.ok() {
			return hout, true, 2, nil
		}
	case <-ctx.Done():
		hcancel()
	}
	return out, false, 2, ctx.Err()
}

// runContext derives one run's context.
func runContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// hedgeRun is the hedge side of one race. Its mutex orders the hedge's
// start against the primary's return, so a hedge never starts after the
// primary has returned.
type hedgeRun[R any] struct {
	mu       sync.Mutex
	finished bool // the primary has returned
	cancel   context.CancelFunc
	done     chan R // receives the hedge's outcome; nil until it starts
}

// start begins the hedge unless the primary has already returned.
func (h *hedgeRun[R]) start(ctx context.Context, timeout time.Duration) (context.Context, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finished {
		return nil, false
	}
	hctx, cancel := runContext(ctx, timeout)
	h.cancel = cancel
	h.done = make(chan R, 1)
	return hctx, true
}

// finish records that the primary has returned and reports the hedge's
// result channel and cancel, both nil when the hedge never started.
func (h *hedgeRun[R]) finish() (chan R, context.CancelFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finished = true
	return h.done, h.cancel
}
