package main

import (
	"math"
	"testing"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

var checkKeys = []key{{"gemm", 1100}, {"mvt1", 64}, {"3dconv", 128}, {"corr", 4000}}

// served decides the keys on a runtime of its own, the way a daemon
// would answer them.
func served(t *testing.T, spec runtimeSpec) []server.DecideResponseV2 {
	t.Helper()
	rt, err := newRuntime(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]server.DecideResponseV2, len(checkKeys))
	for i, k := range checkKeys {
		o, err := rt.Decide(k.Region, symbolic.Bindings{"n": k.N})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = server.DecideResponseV2{Region: k.Region, Verdict: o.TargetID, Candidates: o.Candidates}
	}
	return out
}

func expectFor(t *testing.T, spec runtimeSpec, calibrated bool) *expectations {
	t.Helper()
	ref, err := newRuntime(spec, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := buildExpectations(ref, checkKeys, calibrated)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func clone(r server.DecideResponseV2) server.DecideResponseV2 {
	r.Candidates = append([]offload.Candidate(nil), r.Candidates...)
	return r
}

// TestTamperedVerdictIsCaught: every kind of wrong verdict a service
// could return fails the check, in both checking modes, while the
// untampered verdicts pass.
func TestTamperedVerdictIsCaught(t *testing.T) {
	spec := runtimeSpec{synthetic: true}
	resps := served(t, spec)
	tampers := map[string]func(r *server.DecideResponseV2){
		"verdict is not the top candidate": func(r *server.DecideResponseV2) { r.Verdict = r.Candidates[1].Target },
		"top two candidates swapped": func(r *server.DecideResponseV2) {
			r.Candidates[0], r.Candidates[1] = r.Candidates[1], r.Candidates[0]
			r.Verdict = r.Candidates[0].Target
		},
		"prediction off by one ulp": func(r *server.DecideResponseV2) {
			c := &r.Candidates[2]
			c.PredSeconds = math.Nextafter(c.PredSeconds, math.Inf(1))
		},
		"candidate missing":  func(r *server.DecideResponseV2) { r.Candidates = r.Candidates[:len(r.Candidates)-1] },
		"candidate repeated": func(r *server.DecideResponseV2) { r.Candidates[3] = r.Candidates[2] },
		"unknown target":     func(r *server.DecideResponseV2) { r.Candidates[3].Target = "gpu/next" },
		"error envelope": func(r *server.DecideResponseV2) {
			r.Error = &server.ErrorInfo{Code: server.ErrCodeQueueFull, Message: "admission queue full"}
		},
	}
	for _, calibrated := range []bool{false, true} {
		exp := expectFor(t, spec, calibrated)
		for k := range resps {
			r := clone(resps[k])
			if err := exp.check(k, &r); err != nil {
				t.Fatalf("calibrated=%v: untampered verdict for %v rejected: %v", calibrated, checkKeys[k], err)
			}
			for name, tamper := range tampers {
				r := clone(resps[k])
				tamper(&r)
				if exp.check(k, &r) == nil {
					t.Errorf("calibrated=%v: %s for %v not caught", calibrated, name, checkKeys[k])
				}
			}
			// Another key's verdict answering this key.
			other := clone(resps[(k+1)%len(resps)])
			if exp.check(k, &other) == nil {
				t.Errorf("calibrated=%v: verdict for %v accepted for %v", calibrated, checkKeys[(k+1)%len(resps)], checkKeys[k])
			}
		}
	}
}

// TestCalibratedReorderAccepted: a calibrator may legitimately move a
// target up the ranking; only the calibrated mode accepts that.
func TestCalibratedReorderAccepted(t *testing.T) {
	spec := runtimeSpec{synthetic: true}
	r := clone(served(t, spec)[0])
	// Price the last-ranked target far below every other.
	last := len(r.Candidates) - 1
	r.Candidates[last].CalSeconds = r.Candidates[0].CalSeconds / 10
	moved := r.Candidates[last]
	copy(r.Candidates[1:], r.Candidates[:last])
	r.Candidates[0] = moved
	r.Verdict = moved.Target
	if err := expectFor(t, spec, true).check(0, &r); err != nil {
		t.Fatalf("calibrated reorder rejected: %v", err)
	}
	if expectFor(t, spec, false).check(0, &r) == nil {
		t.Fatal("reorder accepted without calibration")
	}
	// Calibrated seconds that contradict the order are still caught.
	r.Candidates[0].CalSeconds = r.Candidates[1].CalSeconds * 2
	if expectFor(t, spec, true).check(0, &r) == nil {
		t.Fatal("candidates out of calibrated order accepted")
	}
}

// TestWrongTransportCounted: a correct verdict that arrived over another
// transport than the workload measures counts as failed.
func TestWrongTransportCounted(t *testing.T) {
	spec := runtimeSpec{}
	exp := expectFor(t, spec, false)
	resp := served(t, spec)[0]
	c := &caller{}
	v := &client.Verdict{Response: resp, Transport: client.TransportStream}
	if out := verdictOut(c, exp, 0, v, nil, client.TransportStream); out.failed != 0 {
		t.Fatalf("stream verdict failed: %v", c.err)
	}
	v.Transport = client.TransportHTTPJSON
	if out := verdictOut(c, exp, 0, v, nil, client.TransportStream); out.failed != 1 {
		t.Fatal("a verdict that fell back to HTTP JSON passed as a stream verdict")
	}
}
