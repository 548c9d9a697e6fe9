// Command dstream-bench regenerates the tables of the paper's evaluation
// (PPoPP '95, §4.3, Figure 5) on the simulated platforms and prints them
// side by side with the published numbers, and optionally runs the ablation
// experiments from DESIGN.md.
//
// Usage:
//
//	dstream-bench -all            # regenerate Tables 1-4
//	dstream-bench -table 2        # one table
//	dstream-bench -ablations     # the design-choice ablations
//	dstream-bench -all -verify   # also verify data integrity per cell
//	dstream-bench -sweep readahead  # one gated sweep: planner|readahead|critpath|pipeline|scale|alloc
//	dstream-bench -sweep planner -json BENCH_planner.json   # ... and its grid as JSON (its .write cells
//	                                                        # are the two-phase strategy's evidence too)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/bench"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate one table (1-4)")
		all        = flag.Bool("all", false, "regenerate every table")
		ablations  = flag.Bool("ablations", false, "run the ablation experiments")
		stats      = flag.Bool("stats", false, "print the per-variant I/O operation profile")
		traceOut   = flag.String("trace", "", "write a Chrome trace (JSON) of one streams run to this file")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt of one streams run")
		metrics    = flag.Bool("metrics", false, "print the dsmon metrics of one run (Prometheus text)")
		metricsJS  = flag.String("metrics-json", "", "write the dsmon metrics snapshot (JSON) to this file ('-' for stdout)")
		variant    = flag.String("variant", "streams", "variant for -trace/-gantt/-metrics: unbuffered|manual|streams")
		strategy   = flag.String("strategy", "auto", "stream write strategy for -trace/-gantt/-metrics runs: auto|funnel|parallel|twophase")
		sweep      = flag.String("sweep", "", "run one gated sweep by name (an unknown name lists the valid ones)")
		jsonOut    = flag.String("json", "", "write the -sweep grid (JSON) to this file ('-' for stdout)")
		scaleMax   = flag.Int("scale-max", 1024, "largest rank count of -sweep scale (CI smokes 128)")
		serve      = flag.String("serve", "", "serve live telemetry (/metrics /trace /critpath /healthz) on this address during the -trace/-gantt/-metrics run, and keep serving after it until Ctrl-C")
		platforms  = flag.Bool("platforms", false, "sweep all platforms incl. the CM-5 (extension)")
		scaling    = flag.Bool("scaling", false, "strong-scaling sweep to 64 nodes, with the collective fan-out each size ran (extension)")
		verify     = flag.Bool("verify", false, "verify data integrity after every input phase")
		check      = flag.Bool("check", true, "fail if a table violates the paper's shape criteria")
		allocCheck = flag.String("alloc-check", "", "gate -sweep alloc against this baseline JSON; fail on >10% regression")
	)
	flag.Parse()
	if !*all && *table == 0 && !*ablations && !*stats && !*platforms && !*scaling &&
		*sweep == "" && *serve == "" &&
		*traceOut == "" && !*gantt && !*metrics && *metricsJS == "" {
		*all = true
	}

	if *sweep != "" {
		runSweep(*sweep, *jsonOut, bench.Sweeps(*scaleMax, *allocCheck))
	}

	strat, err := pcxx.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	v, ok := map[string]bench.Variant{
		"unbuffered": bench.Unbuffered, "manual": bench.ManualBuf, "streams": bench.Streams,
	}[*variant]
	if !ok {
		fatal(fmt.Errorf("unknown variant %q (want unbuffered|manual|streams)", *variant))
	}

	if *traceOut != "" || *gantt || *metrics || *metricsJS != "" || *serve != "" {
		// A tracing monitor gives one timeline (io + comm + collective +
		// dstream spans) and the full metric registry from the same run.
		mon := pcxx.NewTracingMonitor()
		rec := mon.Recorder()
		var srv *pcxx.TelemetryServer
		if *serve != "" {
			var err error
			if srv, err = pcxx.ServeTelemetry(*serve, mon); err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "dstream-bench: telemetry: http://%s\n", srv.Addr())
		}
		if _, err := bench.Seconds(bench.Run{
			Profile: pcxx.Paragon(), NProcs: 4, Segments: 256, Variant: v, Monitor: mon,
			StreamOpts: pcxx.StreamOptions{Strategy: strat},
		}); err != nil {
			fatal(err)
		}
		if *gantt {
			fmt.Printf("Timeline of %q on paragon, 4 procs, 256 segments:\n", *variant)
			if err := rec.WriteGantt(os.Stdout, 100); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, rec.WriteChromeJSON); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dstream-bench: wrote %s (%d events) — open in chrome://tracing\n",
				*traceOut, rec.Len())
		}
		if *metrics {
			fmt.Printf("# dsmon metrics of %q on paragon, 4 procs, 256 segments\n", *variant)
			if err := mon.WritePrometheus(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if *metricsJS != "" {
			if err := writeTo(*metricsJS, mon.WriteJSON); err != nil {
				fatal(err)
			}
		}
		if srv != nil {
			fmt.Fprintf(os.Stderr, "dstream-bench: run complete; telemetry stays at http://%s — Ctrl-C to exit\n", srv.Addr())
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt)
			<-sig
		}
	}

	if *all || *table != 0 {
		specs := bench.Tables()
		if *table != 0 {
			spec, err := bench.TableByID(*table)
			if err != nil {
				fatal(err)
			}
			specs = []bench.TableSpec{spec}
		}
		for _, spec := range specs {
			res, err := bench.RunTable(spec, *verify)
			if err != nil {
				fatal(err)
			}
			res.Format(os.Stdout)
			if *check {
				if err := res.CheckShape(); err != nil {
					fatal(fmt.Errorf("shape criteria violated: %w", err))
				}
				fmt.Printf("shape criteria: OK (ordering, monotone %%-of-manual%s)\n\n",
					map[bool]string{true: ", paragon cache cliff", false: ""}[spec.Platform == "paragon"])
			}
		}
	}

	if *ablations {
		runAblations()
	}

	if *stats {
		if err := bench.OpProfile(os.Stdout, bench.Run{Profile: pcxx.Paragon(), NProcs: 4, Segments: 512}); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *platforms {
		cell := bench.Run{NProcs: 4, Segments: 512}
		results, err := bench.RunPlatformSweep(cell)
		if err != nil {
			fatal(err)
		}
		bench.FormatPlatformSweep(os.Stdout, cell, results)
	}

	if *scaling {
		cell := bench.Run{Profile: pcxx.Challenge(), Segments: 2048}
		pts, err := bench.RunScalingSweep(cell, []int{1, 2, 4, 8, 16, 32, 64})
		if err != nil {
			fatal(err)
		}
		bench.FormatScalingSweep(os.Stdout, cell, pts)
	}
}

// runAblations drives the ablation table: each row at its committed cell.
func runAblations() {
	fmt.Println("Ablation experiments (virtual seconds, paragon profile unless noted)")
	fmt.Println("---------------------------------------------------------------------")
	for _, a := range bench.Ablations() {
		v, err := a.Measure(a.Cell)
		if err != nil {
			fatal(err)
		}
		fmt.Print(a.Report(a.Cell, v))
	}
}

// runSweep drives one row of the sweep table: run, print, write the grid
// as JSON, gate.
func runSweep(name, jsonPath string, sweeps []bench.Sweep) {
	sw, err := bench.SweepByName(sweeps, name)
	if err != nil {
		fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		fatal(err)
	}
	sw.Format(os.Stdout, res)
	if jsonPath != "" {
		err := writeTo(jsonPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		})
		if err != nil {
			fatal(err)
		}
	}
	summary, err := sw.Check(res)
	if err != nil {
		fatal(err)
	}
	if summary != "" {
		fmt.Fprintln(os.Stderr, "dstream-bench:", summary)
	}
}

// writeTo streams write's output to path ('-' is stdout), reporting a failed
// Close like a failed write: a truncated artifact must not pass for a whole
// one.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstream-bench:", err)
	os.Exit(1)
}
