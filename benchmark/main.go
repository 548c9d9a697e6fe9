// Command benchmark is the repository's wall-clock benchmark: five workloads
// driven through the public API, five end-to-end metrics measured with
// nothing wrapped, and a traced run that times every layer at the seams the
// library offers and then alone, as a rung. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1 -out a.json
//	go run ./benchmark -workload ckpt_small -trace 1 -spans spans.json
//	go run ./benchmark -compare a.json b.json
//
// BENCHMARK.json at the repository root runs it through run.sh, which builds
// inside the checkout.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// referenceSeconds is the run length the issue sized the workloads for; a
// shorter run records its share of it as the scale factor.
const referenceSeconds = 20

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median.
const setupRepeats = 5

// commit is set by run.sh at link time.
var commit = "unknown"

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// record is one run of one workload as it is kept in an -out file: enough to
// tell whether two files measured the same thing before comparing them.
type record struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Scale          float64           `json:"scale"`
	Traced         bool              `json:"traced"`
	Env            environment       `json:"env"`
	Cycles         int               `json:"cycles"`
	CyclesFailed   int               `json:"cycles_failed"`
	MeasuredCycles int               `json:"measured_cycles"`
	SetupRepeats   int               `json:"setup_repeats"`
	ElemsPerCycle  int64             `json:"elems_per_cycle"`
	PayloadBytes   int64             `json:"payload_bytes_per_cycle"`
	PlanSignatures []string          `json:"plan_signatures,omitempty"`
	Shares         string            `json:"phase_rank_time,omitempty"` // traced runs: where the time went
	Metrics        map[string]metric `json:"metrics"`
	Timings        map[string]timing `json:"timings"`
}

type resultFile struct {
	Runs []record `json:"runs"`
}

func (r *record) fill(res *runResult) {
	r.Cycles += res.attempted
	r.CyclesFailed += res.failed
	r.MeasuredCycles = len(res.measured)
	r.ElemsPerCycle, r.PayloadBytes = res.elems, res.payload
	r.PlanSignatures = nil
	for _, s := range res.planSigs {
		r.PlanSignatures = append(r.PlanSignatures, fmt.Sprintf("%016x", s))
	}
	// As the clock read them; the metrics are derived from the same times at
	// the box's calm speed, which box_speed gives as a share.
	out, in := phaseMs(res)
	r.Timings["write_ms"], r.Timings["read_ms"] = timingOf(out), timingOf(in)
	r.Timings["box_speed"] = timingOf(speeds(res))
}

// measure is the untraced run: set-up repeated, then the measured cycles.
func measure(w *workload, rec *record) error {
	var setups []float64
	for i := 1; i < setupRepeats; i++ {
		res, err := w.run(runOpts{seed: rec.Seed, cycles: -1})
		if res != nil {
			rec.Cycles += res.attempted
			rec.CyclesFailed += res.failed
			setups = append(setups, res.setupSeconds*res.setupSpeed)
		}
		if err != nil {
			return err
		}
	}
	res, err := w.run(runOpts{seed: rec.Seed, seconds: rec.Seconds})
	if res == nil {
		return err
	}
	setups = append(setups, res.setupSeconds*res.setupSpeed)
	rec.fill(res)
	rec.Timings["setup_s"] = timingOf(setups)
	rec.Metrics = endToEndMetrics(res, setups)
	return err
}

// measureTraced runs the workload bare for a quarter of the time, traced for
// a third, and spends the rest on the rungs.
func measureTraced(w *workload, rec *record, spansPath string) error {
	// One set-up first, as the untraced run has before it measures, so that
	// neither side of the overhead figure pays for a cold process.
	var fast *runResult
	for _, o := range []runOpts{{seed: rec.Seed, cycles: -1}, {seed: rec.Seed, seconds: rec.Seconds * 0.25}} {
		res, err := w.run(o)
		if res != nil {
			rec.Cycles += res.attempted
			rec.CyclesFailed += res.failed
		}
		if err != nil {
			return err
		}
		fast = res
	}
	traced, err := w.run(runOpts{seed: rec.Seed, seconds: rec.Seconds * 0.35, tracer: newTracer(nprocs)})
	if traced == nil {
		return err
	}
	rec.fill(traced)
	if err != nil {
		return err
	}
	rungs, err := runRungs(rec.Seed, 1)
	if err != nil {
		return err
	}
	aggs := aggregate(traced.spans)
	rec.Metrics = layerMetrics(fast, traced, aggs, rungs)
	rec.Shares = timeShares(traced, aggs)
	if spansPath != "" {
		head := *rec
		head.Metrics, head.Timings = nil, nil
		return writeSpans(spansPath, head, traced.spans)
	}
	return nil
}

func printRecord(rec *record, defs []metricDef) {
	fmt.Printf("# %s seed=%d seconds=%g traced=%v cycles=%d cycles_failed=%d measured=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Cycles, rec.CyclesFailed, rec.MeasuredCycles)
	for _, name := range []string{"setup_s", "write_ms", "read_ms", "box_speed"} {
		if t, ok := rec.Timings[name]; ok {
			fmt.Printf("#   %-10s median %.6g  p90 %.6g  n=%d\n", name, t.Median, t.P90, t.N)
		}
	}
	if rec.Shares != "" {
		fmt.Printf("#   phase rank time: %s\n", rec.Shares)
	}
	for _, d := range defs {
		m := rec.Metrics[d.name]
		fmt.Printf("%-44s %16.6f %-7s (%s is better)\n", d.name, m.Value, m.Unit, d.better)
	}
}

func appendRecords(path string, recs []record) error {
	var f resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed for element sizes and contents")
	seconds := flag.Float64("seconds", referenceSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "1 installs the benchmark's wrappers and reports the per-layer metrics")
	out := flag.String("out", "", "append this run's results to a JSON file")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this file")
	compare := flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
		os.Exit(2)
	}

	env := readEnvironment()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	var recs []record
	var runErr error
	for _, w := range todo {
		rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Scale: *seconds / referenceSeconds,
			Traced: *trace == 1, Env: env, SetupRepeats: setupRepeats,
			Metrics: map[string]metric{}, Timings: map[string]timing{}}
		if *trace == 1 {
			rec.SetupRepeats = 1
			runErr = measureTraced(w, &rec, *spans)
		} else {
			runErr = measure(w, &rec)
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", runErr)
			rec.CyclesFailed = max(rec.CyclesFailed, 1)
		}
		printRecord(&rec, defs)
		recs = append(recs, rec)
		if runErr != nil {
			break
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}

	// The last line is the contract's: one object for the whole invocation.
	// With one workload the metric names are bare; with several each carries
	// its workload in front.
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, rec := range recs {
		final.Attempted += rec.Cycles
		final.Failed += rec.CyclesFailed
		for k, m := range rec.Metrics {
			if len(todo) > 1 {
				k = rec.Workload + "." + k
			}
			final.Metrics[k] = m
		}
	}
	final.Attempted = max(final.Attempted, 1)
	final.Correct = final.Failed == 0 && runErr == nil
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !final.Correct {
		os.Exit(1)
	}
}
