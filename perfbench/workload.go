package main

import (
	"fmt"
	"math/rand"

	"github.com/hybridsel/hybridsel/internal/polybench"
)

// seqLen is the length of the stream_hot and batch_cold request
// streams. Each caller walks its own segment of a stream cyclically.
// Between two requests of one key, each of the 24 regions sees the
// other ~2,700 keys of the stream, more than the 1,024 entries of its
// decision cache, so a cold mix stays cold when a segment wraps.
const seqLen = 1 << 16

// learnSeqLen is cluster_learn's longer stream: a run does not reach
// its end, so keys almost never repeat.
const learnSeqLen = 1 << 20

// key is one decision request: a Polybench region and its size.
type key struct {
	Region string
	N      int64
}

// stream is a workload's seeded request stream: the distinct keys it
// uses and the order in which callers request them.
type stream struct {
	Keys []key
	Seq  []int32 // indices into Keys
}

// workload is one traffic mix. BENCHMARK.json records why each exists
// and the measured share of its traffic with the property it isolates.
type workload struct {
	name string
	// gen builds the request stream from the seed alone.
	gen func(seed int64) stream
	// spec is the served runtimes' registry and simulator fidelity; the
	// reference and the traced run's private runtimes match it.
	spec runtimeSpec
	// learning marks the cluster mix: calibration and learning may
	// reorder its verdicts, and its runs end with the evaluation pass.
	learning bool
	// callers caps the closed-loop callers below one per core when
	// non-zero.
	callers int
	setup   func(rn *runner) (rig, error)
}

var workloads = []workload{
	{
		name: "stream_hot",
		gen:  genHot,
		setup: func(rn *runner) (rig, error) {
			return setupHot(rn)
		},
	},
	{
		name: "batch_cold",
		gen:  genCold,
		spec: runtimeSpec{synthetic: true},
		// One caller: a batch keeps a core busy for its whole call, so
		// two callers on two cores share them with the service's own
		// goroutines, and whether a call overlaps the other caller's
		// splits call latency into two modes with the median at the
		// seam between them. One caller leaves a single mode.
		callers: 1,
		setup: func(rn *runner) (rig, error) {
			return setupCold(rn)
		},
	},
	{
		name:     "cluster_learn",
		gen:      genLearn,
		spec:     runtimeSpec{sampledSim: true},
		learning: true,
		setup: func(rn *runner) (rig, error) {
			return setupLearn(rn)
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// regionNames lists the suite's regions in suite order.
func regionNames() []string {
	suite := polybench.Suite()
	names := make([]string, len(suite))
	for i, k := range suite {
		names[i] = k.Name
	}
	return names
}

// newRand derives a workload's generator from the run seed, salted so
// two workloads with the same seed do not share a stream.
func newRand(seed int64, salt string) *rand.Rand {
	h := int64(1469598103934665603)
	for i := 0; i < len(salt); i++ {
		h = (h ^ int64(salt[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// genHot: 4 sizes per region, 96 keys in all, requested uniformly.
func genHot(seed int64) stream {
	rng := newRand(seed, "stream_hot")
	var s stream
	for _, region := range regionNames() {
		seen := map[int64]bool{}
		for len(seen) < 4 {
			n := 32 + rng.Int63n(4064)
			if !seen[n] {
				seen[n] = true
				s.Keys = append(s.Keys, key{region, n})
			}
		}
	}
	s.Seq = make([]int32, seqLen)
	for i := range s.Seq {
		s.Seq[i] = int32(rng.Intn(len(s.Keys)))
	}
	return s
}

// genCold: 65,536 sizes per region, 64x the decision cache.
func genCold(seed int64) stream {
	return genUniform(newRand(seed, "batch_cold"), seqLen, 16, 1<<16)
}

// genLearn: 262,144 sizes per region, 6.3 million keys in all, so a
// request almost never repeats an earlier key. Every audit then
// simulates afresh instead of hitting the replica's execution memo, and
// the audit work per decision stays the same from the first second of a
// run to the last; the sampled keys, far more than the auditor's
// 4,096-key recently-audited set, keep calibrator and learner updates
// running all run long.
func genLearn(seed int64) stream {
	return genUniform(newRand(seed, "cluster_learn"), learnSeqLen, 16, 1<<18)
}

// genUniform draws length requests with a uniform region and a uniform
// size in [lo, lo+span).
func genUniform(rng *rand.Rand, length int, lo, span int64) stream {
	regions := regionNames()
	var s stream
	index := map[key]int32{}
	s.Seq = make([]int32, length)
	for i := range s.Seq {
		k := key{regions[rng.Intn(len(regions))], lo + rng.Int63n(span)}
		id, ok := index[k]
		if !ok {
			id = int32(len(s.Keys))
			index[k] = id
			s.Keys = append(s.Keys, k)
		}
		s.Seq[i] = id
	}
	return s
}
