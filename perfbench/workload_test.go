package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSeededStreams: the same seed yields the identical request stream,
// and a different seed a different one, for every workload.
func TestSeededStreams(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(1), w.gen(1), w.gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

// TestStreamShapes pins the property each workload isolates: the hot
// keys fit the decision cache many times over, the cold and learning
// streams hold many more distinct keys per region than it has entries.
func TestStreamShapes(t *testing.T) {
	const cachePerRegion = 1024
	perRegion := func(s stream) map[string]int {
		n := map[string]int{}
		for _, k := range s.Keys {
			n[k.Region]++
		}
		return n
	}
	hot := genHot(1)
	if len(hot.Keys) != 96 {
		t.Fatalf("stream_hot has %d keys, want 96", len(hot.Keys))
	}
	for name, s := range map[string]stream{"batch_cold": genCold(1), "cluster_learn": genLearn(1)} {
		for region, n := range perRegion(s) {
			if n < 2*cachePerRegion {
				t.Errorf("%s: region %s has %d distinct keys, not well beyond its %d-entry cache",
					name, region, n, cachePerRegion)
			}
		}
		for i, k := range s.Seq {
			if int(k) >= len(s.Keys) {
				t.Fatalf("%s: request %d names key %d of %d", name, i, k, len(s.Keys))
			}
		}
	}
}

// TestLedgerMatchesBenchmarkJSON keeps BENCHMARK.json's workloads and
// metrics in step with what the benchmark prints.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		PL        []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bench.Workloads[i].Name, w.name)
		}
	}
	for _, side := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bench.E2E, endToEnd}, {"per_layer", bench.PL, perLayer}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", side.name, len(side.got), len(side.want))
		}
		for i, m := range side.want {
			if side.got[i].Name != m.name || side.got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					side.name, i, side.got[i].Name, side.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
