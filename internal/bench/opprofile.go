package bench

import (
	"fmt"
	"io"

	"pcxxstreams/internal/vtime"
)

// OpProfile regenerates the operation-count story behind one table column:
// for each variant, the number and kind of I/O calls issued. This is the
// mechanism behind the paper's results — "buffering reduces total I/O
// latency time" because it replaces thousands of small calls with a few
// parallel ones.
func OpProfile(w io.Writer, r Run) error {
	fmt.Fprintf(w, "I/O operation profile — %s, %d procs, %d segments (output+input):\n",
		r.Profile.Name, r.NProcs, r.Segments)
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s %10s %12s %12s\n",
		"variant", "opens", "smallW", "smallR", "parW", "parR", "bytesW", "bytesR")
	for _, v := range []Variant{Unbuffered, ManualBuf, Streams} {
		r.Variant = v
		m, err := Measure(r)
		if err != nil {
			return err
		}
		io := m.IO
		fmt.Fprintf(w, "%-20s %10d %10d %10d %10d %10d %12d %12d\n",
			v, io.Opens, io.IndependentWrites, io.IndependentReads,
			io.ParallelAppends, io.ParallelReads, io.BytesWritten, io.BytesRead)
	}
	return nil
}

// PlatformSweep runs the streams variant of the SCF benchmark on every
// platform profile — including the CM-5, which the paper reports the
// library ran on but could not time ("CMMD timers do not account for I/O").
// The virtual-time machinery has no such limitation, so the sweep supplies
// the CM-5 column the paper could not.
type PlatformResult struct {
	Profile string
	Variant Variant
	Seconds float64
}

// RunPlatformSweep measures every variant on every platform at the size of r.
func RunPlatformSweep(r Run) ([]PlatformResult, error) {
	var out []PlatformResult
	for _, name := range []string{"paragon", "cm5", "challenge"} {
		r.Profile, _ = vtime.ByName(name)
		for _, v := range []Variant{Unbuffered, ManualBuf, Streams} {
			r.Variant = v
			secs, err := Seconds(r)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%v: %w", name, v, err)
			}
			out = append(out, PlatformResult{Profile: name, Variant: v, Seconds: secs})
		}
	}
	return out, nil
}

// ScalingPoint is one node-count measurement of the scaling sweep.
type ScalingPoint struct {
	NProcs  int
	Seconds float64
	Fanout  int // the collectives' shape at this size (Measurement.Fanout)
}

// RunScalingSweep measures the streams variant of r at fixed problem size
// over a range of node counts — the extension "figure" beyond the paper's
// 8-processor ceiling. The benchmark is strong-scaling: total data stays
// constant.
func RunScalingSweep(r Run, procCounts []int) ([]ScalingPoint, error) {
	r.Variant = Streams
	var out []ScalingPoint
	for _, p := range procCounts {
		r.NProcs = p
		m, err := Measure(r)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling p=%d: %w", p, err)
		}
		out = append(out, ScalingPoint{NProcs: p, Seconds: m.Seconds, Fanout: m.Fanout})
	}
	return out, nil
}

// FormatScalingSweep renders the sweep.
func FormatScalingSweep(w io.Writer, r Run, pts []ScalingPoint) {
	fmt.Fprintf(w, "Strong scaling (extension) — %s, %d segments, streams variant (virtual seconds; fan-out 0 = flat collectives):\n",
		r.Profile.Name, r.Segments)
	fmt.Fprintf(w, "%8s %14s %8s\n", "procs", "seconds", "fan-out")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %14.3f %8d\n", p.NProcs, p.Seconds, p.Fanout)
	}
}

// FormatPlatformSweep renders the sweep of r as a table.
func FormatPlatformSweep(w io.Writer, r Run, results []PlatformResult) {
	fmt.Fprintf(w, "Platform sweep — %d procs, %d segments (output+input, virtual seconds):\n",
		r.NProcs, r.Segments)
	fmt.Fprintf(w, "%-20s %12s %12s %12s\n", "variant", "paragon", "cm5", "challenge")
	byKey := map[string]float64{}
	for _, r := range results {
		byKey[fmt.Sprintf("%s/%d", r.Profile, r.Variant)] = r.Seconds
	}
	for _, v := range []Variant{Unbuffered, ManualBuf, Streams} {
		fmt.Fprintf(w, "%-20s %12.3f %12.3f %12.3f\n", v,
			byKey[fmt.Sprintf("paragon/%d", v)],
			byKey[fmt.Sprintf("cm5/%d", v)],
			byKey[fmt.Sprintf("challenge/%d", v)])
	}
}
