package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The compare subcommand sets two sets of runs side by side (parent and
// change), workload by workload and metric by metric, in place of
// benchstat:
//
//	bash perfbench/run.sh compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR
//
// Each directory holds one file per run with that run's standard output.
// For every metric it prints both sides' median and quartiles, the share
// of pairs (matched by seed, else by order) the change won, and, for
// metrics with a bound, a verdict:
//
//   - "within bound": the change's median is not worse than the parent's
//     by more than the bound, and both sides' spread is inside it — or
//     every change run beat every parent run;
//   - "worse": the median got worse by more than the bound;
//   - "unresolved": the run-to-run spread (quartile distance over the
//     median) of either side is wider than the bound.
//
// It exits 1 if any metric is worse.

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runFile is one run's parsed output.
type runFile struct {
	workload string
	seed     int64
	traced   bool
	res      result
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	var bench benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := readRuns(fs.Arg(0))
	if err == nil {
		var change []runFile
		change, err = readRuns(fs.Arg(1))
		if err == nil {
			rows := compareRuns(bench, parent, change)
			worse := false
			fmt.Fprintf(out, "%-14s %-30s %-34s %-34s %8s %5s  %s\n",
				"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "won", "verdict")
			for _, r := range rows {
				fmt.Fprintln(out, r.String())
				worse = worse || r.verdict == verdictWorse
			}
			if worse {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

// readRuns parses every file of dir as one run's output: the env line
// names the workload and seed, the last line is the result.
func readRuns(dir string) ([]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rf, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, rf)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return runs, nil
}

func parseRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	var rf runFile
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, `{"env":`) {
			var env struct {
				Env struct {
					Workload string `json:"workload"`
					Seed     int64  `json:"seed"`
					Trace    bool   `json:"trace"`
				} `json:"env"`
			}
			if err := json.Unmarshal([]byte(line), &env); err != nil {
				return rf, fmt.Errorf("%s: %w", path, err)
			}
			rf.workload, rf.seed, rf.traced = env.Env.Workload, env.Env.Seed, env.Env.Trace
		}
	}
	if err := sc.Err(); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.workload == "" {
		return rf, fmt.Errorf("%s: no env line", path)
	}
	if err := json.Unmarshal([]byte(last), &rf.res); err != nil {
		return rf, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return rf, nil
}

const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload and metric.
type compareRow struct {
	workload, metric, unit string
	parent, change         []float64
	pq, cq                 [3]float64 // q1, median, q3
	won, pairs             int
	bound                  float64
	verdict                string
}

func (r compareRow) String() string {
	delta := 100 * ratio(r.cq[1]-r.pq[1], r.pq[1])
	won := "-"
	if r.pairs > 0 {
		won = fmt.Sprintf("%d/%d", r.won, r.pairs)
	}
	v := r.verdict
	if v == "" {
		v = "(no bound)"
	}
	return fmt.Sprintf("%-14s %-30s %-34s %-34s %+7.2f%% %5s  %s",
		r.workload, r.metric+" ("+r.unit+")",
		fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", r.pq[1], r.pq[0], r.pq[2], len(r.parent)),
		fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", r.cq[1], r.cq[0], r.cq[2], len(r.change)),
		delta, won, v)
}

// compareRuns builds one row per workload and metric present on both
// sides: end-to-end metrics from untraced runs, per-layer metrics from
// traced runs.
func compareRuns(bench benchmarkFile, parent, change []runFile) []compareRow {
	var workloads []string
	seen := map[string]bool{}
	for _, r := range append(append([]runFile(nil), parent...), change...) {
		if !seen[r.workload] {
			seen[r.workload] = true
			workloads = append(workloads, r.workload)
		}
	}
	sort.Strings(workloads)
	var rows []compareRow
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			if row, ok := compareMetric(w, m.Name, m.Unit, m.Better, m.Bound, false, parent, change); ok {
				rows = append(rows, row)
			}
		}
		for _, m := range bench.PerLayer {
			if row, ok := compareMetric(w, m.Name, m.Unit, m.Better, 0, true, parent, change); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func compareMetric(workload, name, unit, better string, bound float64, traced bool, parent, change []runFile) (compareRow, bool) {
	pick := func(runs []runFile) ([]float64, []int64) {
		var vs []float64
		var seeds []int64
		for _, r := range runs {
			if r.workload != workload || r.traced != traced {
				continue
			}
			if mv, ok := r.res.Metrics[name]; ok {
				vs = append(vs, mv.Value)
				seeds = append(seeds, r.seed)
			}
		}
		return vs, seeds
	}
	pv, ps := pick(parent)
	cv, cs := pick(change)
	if len(pv) == 0 || len(cv) == 0 {
		return compareRow{}, false
	}
	row := compareRow{workload: workload, metric: name, unit: unit, parent: pv, change: cv,
		pq: quartiles(pv), cq: quartiles(cv), bound: bound}
	lower := better != "higher"
	beats := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	// Pairs: by seed where both sides ran it, otherwise by position.
	bySeed := map[int64]float64{}
	for i, s := range ps {
		bySeed[s] = pv[i]
	}
	for i, s := range cs {
		p, ok := bySeed[s]
		if !ok {
			if i >= len(pv) {
				continue
			}
			p = pv[i]
		}
		row.pairs++
		if beats(cv[i], p) {
			row.won++
		}
	}
	if bound <= 0 {
		return row, true
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && beats(c, p)
		}
	}
	worseBy := ratio(row.cq[1]-row.pq[1], row.pq[1])
	if !lower {
		worseBy = -worseBy
	}
	switch {
	case allBetter:
		row.verdict = verdictWithin
	case spread(row.pq) > bound || spread(row.cq) > bound:
		row.verdict = verdictUnresolved
	case worseBy > bound:
		row.verdict = verdictWorse
	default:
		row.verdict = verdictWithin
	}
	return row, true
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }

// quartiles returns q1, the median and q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 {
		return [3]float64{med, med, med}
	}
	ld, n := len(s), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	q[1] = med
	return q
}
