package pcxxstreams

// The benchmark harness of the reproduction: one testing.B benchmark per
// table of the paper's Figure 5 (Tables 1-4), plus the ablation benches
// DESIGN.md derives from the paper's design discussion, plus host-side
// micro-benchmarks of the library itself.
//
// The table benches report deterministic *virtual* seconds (the paper's
// metric, from the calibrated platform cost models) via b.ReportMetric;
// wall-clock time of a bench run is the simulator's own cost and is not
// comparable to the paper. Run with:
//
//	go test -bench=Table -benchmem
//	go test -bench=Ablation
//	go test -bench=. -benchmem   # everything

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"pcxxstreams/internal/bench"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

var printTables sync.Map // table id → once

func benchTable(b *testing.B, id int) {
	spec, err := bench.TableByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res bench.TableResult
	for i := 0; i < b.N; i++ {
		res, err = bench.RunTable(spec, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.CheckShape(); err != nil {
		b.Fatalf("shape violated: %v", err)
	}
	// Print each regenerated table once per `go test` process, side by side
	// with the paper's numbers.
	if _, loaded := printTables.LoadOrStore(id, true); !loaded {
		fmt.Fprintln(os.Stderr)
		res.Format(os.Stderr)
	}
	last := len(spec.Segments) - 1
	b.ReportMetric(res.Streams[last], "vsec-streams")
	b.ReportMetric(res.Manual[last], "vsec-manual")
	b.ReportMetric(res.Unbuffered[last], "vsec-unbuf")
	b.ReportMetric(res.Percent[last], "%ofmanual")
}

// BenchmarkTable1 regenerates Table 1: Intel Paragon, 4 processors.
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2: Intel Paragon, 8 processors.
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3: uniprocessor SGI Challenge.
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4: 8-processor SGI Challenge.
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// --- Ablations (see DESIGN.md §Ablations) ---

// BenchmarkAblation runs every row of bench.Ablations — the table
// `dstream-bench -ablations` prints — at its committed cell, one
// sub-benchmark per design decision, one vsec metric per side of it.
func BenchmarkAblation(b *testing.B) {
	for _, a := range bench.Ablations() {
		b.Run(a.Name, func(b *testing.B) {
			var v []float64
			var err error
			for i := 0; i < b.N; i++ {
				if v, err = a.Measure(a.Cell); err != nil {
					b.Fatal(err)
				}
			}
			for i, label := range a.Labels {
				b.ReportMetric(v[i], "vsec-"+label)
			}
		})
	}
}

// --- Host micro-benchmarks of the library itself (wall-clock) ---

// BenchmarkStreamWriteThroughput measures host-side throughput of the full
// insert+write pipeline.
func BenchmarkStreamWriteThroughput(b *testing.B) {
	const segments, nprocs = 256, 4
	bytes := int64(segments) * scf.EncodedBytes(scf.DefaultParticles)
	b.SetBytes(bytes)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Seconds(bench.Run{
			Profile: vtime.Challenge(), NProcs: nprocs, Segments: segments,
			Variant: bench.Streams,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentEncode measures raw element encode speed.
func BenchmarkSegmentEncode(b *testing.B) {
	var s scf.Segment
	s.Fill(1, scf.DefaultParticles)
	b.SetBytes(scf.EncodedBytes(scf.DefaultParticles))
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		s.StreamInsert(&e)
	}
}

// BenchmarkPlatformSweep runs the streams benchmark on all three platform
// profiles (paragon, cm5, challenge) — the CM-5 column is the measurement
// the paper could not take ("CMMD timers do not account for I/O").
func BenchmarkPlatformSweep(b *testing.B) {
	var results []bench.PlatformResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = bench.RunPlatformSweep(bench.Run{NProcs: 4, Segments: 512})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		if r.Variant == bench.Streams {
			b.ReportMetric(r.Seconds, "vsec-"+r.Profile)
		}
	}
}

// BenchmarkOpProfile reports the per-variant I/O call counts behind the
// tables at the 512-segment point.
func BenchmarkOpProfile(b *testing.B) {
	var m bench.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = bench.Measure(bench.Run{
			Profile: vtime.Paragon(), NProcs: 4, Segments: 512, Variant: bench.Unbuffered,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.IO.TotalOps()), "io-ops-unbuffered")
}
