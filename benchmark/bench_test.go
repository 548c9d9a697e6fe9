package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
)

// The tests run every workload at a sixteenth of its size for two measured
// cycles: enough to go through every code path of the driver, the wrappers
// and the metric derivation.
const testShrink = 16

func testRun(t *testing.T, w *workload, o runOpts) *runResult {
	t.Helper()
	o.seed, o.cycles, o.shrink = 7, 2, testShrink
	res, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.failed != 0 || len(res.measured) != 2 {
		t.Fatalf("%s: %d cycles failed, %d measured, want 0 and 2", w.name, res.failed, len(res.measured))
	}
	return res
}

func names[T any](m map[string]T) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload emits exactly the metrics BENCHMARK.json lists, under names
// the contract allows, and the program's own lists say what the file says.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantE2E, wantLayer []string
	for i, m := range bj.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end_to_end[%d]: program has %v, BENCHMARK.json %v", i, d, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("per_layer: program has %d, BENCHMARK.json %d, limit 128", len(perLayer), len(bj.PerLayer))
	}
	for i, m := range bj.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per_layer[%d]: program has %v, BENCHMARK.json %v", i, d, m)
		}
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	for _, n := range append(append([]string(nil), wantE2E...), wantLayer...) {
		if !legal.MatchString(n) {
			t.Errorf("metric name %q is outside the contract", n)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(bj.Workloads))
	}

	rungs, err := runRungs(7, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: program has %q, BENCHMARK.json %q", i, w.name, bj.Workloads[i].Name)
		}
		fast := testRun(t, w, runOpts{})
		e2e := endToEndMetrics(fast, []float64{fast.setupSeconds})
		if got := names(e2e); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, wantE2E)
		}
		for k, m := range e2e {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.name, k, m.Value)
			}
		}
		traced := testRun(t, w, runOpts{tracer: newTracer(nprocs)})
		layer := layerMetrics(fast, traced, aggregate(traced.spans), rungs)
		if got := names(layer); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, wantLayer)
		}
		for _, s := range traced.spans {
			if s.End < s.Start || s.Kind >= numKinds || (s.Kind != kCycle && s.Parent == 0) {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
		}
		if c := layer["trace.coverage_pct"].Value; c < 50 || c > 100.5 {
			t.Errorf("%s: façade spans cover %.1f%% of the phases", w.name, c)
		}
	}
}

// The wrappers count what the library's own accounts count: every byte the
// backend wrapper saw written is in the stored file (once per cycle, the file
// being rewritten each time), and the transport wrapper saw exactly the
// traffic machine.Result reports.
func TestWrapperCountsMatchTheLibrary(t *testing.T) {
	for _, name := range []string{"ckpt_small", "restart_redist"} {
		tr := newTracer(nprocs)
		res := testRun(t, workloadByName(name), runOpts{tracer: tr})
		if got, want := tr.backendWritten.Load(), int64(res.attempted)*res.imageBytes; got != want || want == 0 {
			t.Errorf("%s: backend wrapper saw %d bytes written, %d cycles × %d-byte image = %d", name, got, res.attempted, res.imageBytes, want)
		}
		if got := tr.sentBytes.Load(); got != res.bytesSent || got == 0 {
			t.Errorf("%s: transport wrapper saw %d bytes sent, machine.Result.BytesSent is %d", name, got, res.bytesSent)
		}
		if got := tr.sentMsgs.Load(); got != res.msgsSent {
			t.Errorf("%s: transport wrapper saw %d messages, machine.Result.MessagesSent is %d", name, got, res.msgsSent)
		}
	}
}

func TestUntracedRunMakesNoWrapperCalls(t *testing.T) {
	before := wrapperCalls.Load()
	for i := range workloads {
		testRun(t, &workloads[i], runOpts{})
	}
	if got := wrapperCalls.Load(); got != before {
		t.Fatalf("untraced runs made %d wrapper calls", got-before)
	}
	testRun(t, workloadByName("daemon_ckpt"), runOpts{tracer: newTracer(nprocs)})
	if wrapperCalls.Load() == before {
		t.Fatal("a traced run made no wrapper calls")
	}
}

// flipOnRead hands back one wrong bit in every read that covers byte at.
type flipOnRead struct {
	pfs.Backend
	at int64
}

func (f *flipOnRead) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.Backend.ReadAt(p, off)
	if i := f.at - off; i >= 0 && i < int64(n) {
		p[i] ^= 0x10
	}
	return n, err
}

func (f *flipOnRead) Layout() pfs.Layout {
	if lp, ok := f.Backend.(pfs.LayoutProvider); ok {
		return lp.Layout()
	}
	return pfs.Layout{}
}

// A byte that comes back wrong from storage fails the cycle, whether the
// library trips over it or hands it on for the stamp-and-digest check to
// find.
func TestCorruptReadFailsTheCycle(t *testing.T) {
	for _, name := range []string{"ckpt_small", "daemon_ckpt"} {
		w := workloadByName(name)
		clean := testRun(t, w, runOpts{})
		corrupt := func(f pfs.BackendFactory) pfs.BackendFactory {
			return func(n string) (pfs.Backend, error) {
				b, err := f(n)
				return &flipOnRead{Backend: b, at: clean.imageBytes - 9}, err
			}
		}
		res, _ := w.run(runOpts{seed: 7, cycles: 2, shrink: testShrink, wrapStorage: corrupt})
		if res == nil || res.failed == 0 {
			t.Errorf("%s: a flipped byte on read went unnoticed", name)
		}
	}
}

func TestCompare(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var bound float64
	for _, m := range bj.EndToEnd {
		if m.Name == "read_MBps" {
			bound = m.Bound
		}
	}
	dir := t.TempDir()
	write := func(file string, scale float64) string {
		var f resultFile
		for _, w := range workloads {
			for seed := uint64(1); seed <= 2; seed++ {
				r := record{Workload: w.name, Seed: seed, Seconds: 10, Metrics: map[string]metric{}}
				for _, d := range endToEnd {
					r.Metrics[d.name] = metric{100 + float64(seed), d.unit}
				}
				if w.name == "pipe_chan" {
					r.Metrics["read_MBps"] = metric{(100 + float64(seed)) * scale, "MB/s"}
				}
				f.Runs = append(f.Runs, r)
			}
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, file)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slower := write("a.json", 1), write("same.json", 1+bound/2), write("slower.json", 1-bound*1.5)
	var out bytes.Buffer
	if code := compareFiles(a, same, &out); code != 0 || strings.Contains(out.String(), "outside") {
		t.Errorf("half a bound apart compared as code %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(a, slower, &out); code != 1 || strings.Count(out.String(), "outside bound (b worse)") != 1 {
		t.Errorf("one row a bound and a half slower compared as code %d:\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("%d lines, want a header and %d rows:\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
}

// The reference round trip is a real one (what comes back is what went in),
// and it allocates the same every time, so taking it off a run's allocation
// counts is exact.
func TestReferenceRoundTrip(t *testing.T) {
	r := rng(7)
	small, segs := make([]smallElem, 64), make([]scf.Segment, 8)
	for i := range small {
		small[i] = smallOps.gen(&r)
	}
	for i := range segs {
		segs[i] = segmentOps.gen(&r)
	}
	backSmall, backSegs := make([]smallElem, len(small)), make([]scf.Segment, len(segs))
	smallOps.plainDec(smallOps.plainEnc(small, nil), backSmall)
	segmentOps.plainDec(segmentOps.plainEnc(segs, nil), backSegs)
	for i := range small {
		if !smallOps.equal(&small[i], &backSmall[i]) {
			t.Fatalf("small element %d came back different", i)
		}
	}
	for i := range segs {
		if !segmentOps.equal(&segs[i], &backSegs[i]) {
			t.Fatalf("segment %d came back different", i)
		}
	}

	ref := newReference(&segmentOps, segs, 1000)
	defer ref.stop()
	if ref.mallocs != uint64(7*len(segs)) || ref.bytes == 0 {
		t.Fatalf("one round trip over %d segments allocates %d objects and moves %d bytes", len(segs), ref.mallocs, ref.bytes)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10; i++ {
		if s := ref.speed(ref.roundTrip()); !(s > 0) {
			t.Fatalf("speed %v", s)
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got != 10*ref.mallocs {
		t.Errorf("ten round trips allocated %d objects, the first counted %d each", got, ref.mallocs)
	}
}
