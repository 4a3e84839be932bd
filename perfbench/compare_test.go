package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// writeRuns stores one run output file per value, seeds 1..n.
func writeRuns(t *testing.T, dir, workload, metric string, values []float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		env, _ := json.Marshal(map[string]any{"env": map[string]any{"workload": workload, "seed": i + 1, "trace": false}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{metric: {v, "us"}}})
		body := fmt.Sprintf("human-readable report\n%s\n%s\n", env, res)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d.out", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompareVerdicts: within bound, worse and unresolved, with the
// every-run-better exception to unresolved.
func TestCompareVerdicts(t *testing.T) {
	var bench benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"call_p50_us","unit":"us","better":"lower","bound":0.1}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
		won    int
	}{
		{"same", []float64{101, 100, 99, 100, 101, 99, 100, 100, 102, 98}, verdictWithin, 4},
		{"five percent slower", []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, verdictWithin, 0},
		{"twenty percent slower", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, verdictWorse, 0},
		{"too noisy to tell", []float64{80, 130, 95, 120, 70, 140, 100, 90, 125, 85}, verdictUnresolved, 5},
		{"noisy but always faster", []float64{50, 80, 60, 90, 55, 85, 70, 65, 75, 52}, verdictWithin, 10},
	} {
		dir := t.TempDir()
		writeRuns(t, filepath.Join(dir, "parent"), "stream_hot", "call_p50_us", steady)
		writeRuns(t, filepath.Join(dir, "change"), "stream_hot", "call_p50_us", c.change)
		parent, err := readRuns(filepath.Join(dir, "parent"))
		if err != nil {
			t.Fatal(err)
		}
		change, err := readRuns(filepath.Join(dir, "change"))
		if err != nil {
			t.Fatal(err)
		}
		rows := compareRuns(bench, parent, change)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		if r := rows[0]; r.verdict != c.want || r.won != c.won || r.pairs != 10 {
			t.Errorf("%s: verdict %q, won %d/%d; want %q, %d/10\n%s", c.name, r.verdict, r.won, r.pairs, c.want, c.won, r)
		}
	}
}

// TestCompareMainExitCode: compare exits 1 when a metric got worse.
func TestCompareMainExitCode(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"decisions_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeRuns(t, filepath.Join(dir, "parent"), "batch_cold", "decisions_per_s", []float64{1000, 1010, 990, 1005, 995})
	writeRuns(t, filepath.Join(dir, "change"), "batch_cold", "decisions_per_s", []float64{800, 810, 790, 805, 795})
	var out strings.Builder
	if code := compareMain([]string{"-bench", bench, filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out); code != 1 {
		t.Fatalf("exit %d for a 20%% throughput drop, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Fatalf("report does not say worse:\n%s", out.String())
	}
}
