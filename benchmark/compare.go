package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the program reads: the bounds
// -compare judges by, and the lists a test checks the program's own against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// loadBenchmarkJSON finds the file from the repository root, where the
// program is run, or from this directory, where its tests are.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var b []byte
		if b, err = os.ReadFile(p); err == nil {
			var bj benchmarkJSON
			if err = json.Unmarshal(b, &bj); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			return &bj, nil
		}
	}
	return nil, err
}

func loadRuns(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var runs []record
	for _, r := range f.Runs {
		if !r.Traced {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// sameThing lists what differs between two files' accounts of what they
// measured: seeds, run length, machine, plans.
func sameThing(a, b []record) []string {
	key := func(rs []record) map[string][]string {
		m := map[string][]string{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], fmt.Sprintf("seed=%d seconds=%g plans=%s nproc=%d gomaxprocs=%d go=%s cpu=%q",
				r.Seed, r.Seconds, strings.Join(r.PlanSignatures, ","), r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.CPU))
		}
		for _, v := range m {
			sort.Strings(v)
		}
		return m
	}
	ka, kb := key(a), key(b)
	var diffs []string
	for w, va := range ka {
		if vb := kb[w]; strings.Join(va, ";") != strings.Join(vb, ";") {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", w, va, vb))
		}
	}
	for w := range kb {
		if _, ok := ka[w]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: only in the second file", w))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// compareFiles prints one row per end-to-end metric and workload — the
// median over each file's runs, the ratio and a verdict by BENCHMARK.json's
// bound — and returns the exit code: 1 when any row is outside its bound or
// any cycle failed.
func compareFiles(pathA, pathB string, w io.Writer) int {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := loadRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadRuns(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	for _, d := range sameThing(a, b) {
		fmt.Fprintf(w, "# not the same measurement: %s\n", d)
	}
	code := 0
	values := func(rs []record, workload, name string) (v []float64, failed int) {
		for _, r := range rs {
			if r.Workload == workload {
				failed += r.CyclesFailed
				if m, ok := r.Metrics[name]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v, failed
	}
	fmt.Fprintf(w, "%-15s %-29s %-7s %14s %14s %8s %6s  %s\n", "workload", "metric", "unit", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wl := range bj.Workloads {
		for _, m := range bj.EndToEnd {
			va, fa := values(a, wl.Name, m.Name)
			vb, fb := values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "agree"
			switch {
			case fa+fb > 0:
				verdict = fmt.Sprintf("cycles failed (%d, %d)", fa, fb)
				code = 1
			case worse > m.Bound:
				verdict = "outside bound (b worse)"
				code = 1
			case -worse > m.Bound:
				verdict = "outside bound (b better)"
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-29s %-7s %14.6g %14.6g %8.4f %6.2f  %s (n=%d,%d)\n",
				wl.Name, m.Name, m.Unit, ma, mb, ratio, m.Bound, verdict, len(va), len(vb))
		}
	}
	return code
}
