package main

import (
	"fmt"
	"math"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// expectations holds every key's reference verdict, computed on an
// in-process runtime with the served registry and no calibration.
type expectations struct {
	ids   []string       // registry order
	index map[string]int // target ID -> registry index
	order []uint8        // per key, nt ranked registry indices
	pred  []float64      // per key, nt predicted seconds by registry index
	// calibrated marks a service whose calibrator and learner may
	// legitimately reorder verdicts: only the raw predictions and the
	// ranking rule are checked, not the reference order.
	calibrated bool
}

func buildExpectations(ref *offload.Runtime, keys []key, calibrated bool) (*expectations, error) {
	ids := ref.Targets().IDs()
	e := &expectations{
		ids:        ids,
		index:      make(map[string]int, len(ids)),
		order:      make([]uint8, len(keys)*len(ids)),
		pred:       make([]float64, len(keys)*len(ids)),
		calibrated: calibrated,
	}
	for i, id := range ids {
		e.index[id] = i
	}
	nt := len(ids)
	for k, ky := range keys {
		out, err := ref.Decide(ky.Region, symbolic.Bindings{"n": ky.N})
		if err != nil {
			return nil, fmt.Errorf("reference verdict for %s n=%d: %w", ky.Region, ky.N, err)
		}
		if len(out.Candidates) != nt {
			return nil, fmt.Errorf("reference verdict for %s n=%d ranks %d of %d targets",
				ky.Region, ky.N, len(out.Candidates), nt)
		}
		for r, c := range out.Candidates {
			t := e.index[c.Target]
			e.order[k*nt+r] = uint8(t)
			e.pred[k*nt+t] = c.PredSeconds
		}
	}
	return e, nil
}

// check verifies one served verdict for key k. Without calibration the
// verdict, the candidate order and every prediction must equal the
// reference bit for bit. With calibration the predictions must still
// match bit for bit, the candidates must be ranked by calibrated seconds
// (registry order breaking ties), and the verdict must be the first
// candidate.
func (e *expectations) check(k int, r *server.DecideResponseV2) error {
	if r.Error != nil {
		return fmt.Errorf("%s: error %s: %s", r.Region, r.Error.Code, r.Error.Message)
	}
	nt := len(e.ids)
	if len(r.Candidates) != nt {
		return fmt.Errorf("%s: %d candidates, want %d", r.Region, len(r.Candidates), nt)
	}
	seen := 0
	for rank, c := range r.Candidates {
		t, ok := e.index[c.Target]
		if !ok || seen&(1<<t) != 0 {
			return fmt.Errorf("%s: candidate %d is %q: unknown or repeated target", r.Region, rank, c.Target)
		}
		seen |= 1 << t
		if math.Float64bits(c.PredSeconds) != math.Float64bits(e.pred[k*nt+t]) {
			return fmt.Errorf("%s: %s predSeconds %v, reference %v",
				r.Region, c.Target, c.PredSeconds, e.pred[k*nt+t])
		}
		if !e.calibrated {
			if want := e.ids[e.order[k*nt+rank]]; c.Target != want {
				return fmt.Errorf("%s: rank %d is %s, reference %s", r.Region, rank, c.Target, want)
			}
			continue
		}
		if rank > 0 {
			p := r.Candidates[rank-1]
			if p.CalSeconds > c.CalSeconds || (p.CalSeconds == c.CalSeconds && e.index[p.Target] > t) {
				return fmt.Errorf("%s: rank %d (%s, %v s) ahead of rank %d (%s, %v s)",
					r.Region, rank-1, p.Target, p.CalSeconds, rank, c.Target, c.CalSeconds)
			}
		}
	}
	if r.Verdict != r.Candidates[0].Target {
		return fmt.Errorf("%s: verdict %s is not the top candidate %s", r.Region, r.Verdict, r.Candidates[0].Target)
	}
	return nil
}
