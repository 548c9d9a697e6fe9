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
//	dstream-bench -twophase      # two-phase vs funnel vs parallel ablation
//	dstream-bench -planner       # StrategyAuto vs the best static choice per cell
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/bench"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate one table (1-4)")
		all         = flag.Bool("all", false, "regenerate every table")
		ablations   = flag.Bool("ablations", false, "run the ablation experiments")
		stats       = flag.Bool("stats", false, "print the per-variant I/O operation profile")
		traceOut    = flag.String("trace", "", "write a Chrome trace (JSON) of one streams run to this file")
		gantt       = flag.Bool("gantt", false, "print an ASCII Gantt of one streams run")
		metrics     = flag.Bool("metrics", false, "print the dsmon metrics of one run (Prometheus text)")
		metricsJS   = flag.String("metrics-json", "", "write the dsmon metrics snapshot (JSON) to this file ('-' for stdout)")
		variant     = flag.String("variant", "streams", "variant for -trace/-gantt/-metrics: unbuffered|manual|streams")
		strategy    = flag.String("strategy", "auto", "stream write strategy for -trace/-gantt/-metrics runs: auto|funnel|parallel|twophase")
		twophase    = flag.Bool("twophase", false, "run the two-phase vs funnel vs parallel strategy ablation")
		twophaseJS  = flag.String("twophase-json", "", "write the two-phase ablation grid (JSON) to this file ('-' for stdout)")
		planner     = flag.Bool("planner", false, "run the planner-vs-oracle grid: StrategyAuto against the best static choice per cell")
		plannerJS   = flag.String("planner-json", "", "write the planner grid (JSON) to this file ('-' for stdout)")
		readahead   = flag.Bool("readahead", false, "run the read-ahead prefetch ablation")
		readaheadJS = flag.String("readahead-json", "", "write the read-ahead ablation grid (JSON) to this file ('-' for stdout)")
		critpathF   = flag.Bool("critpath", false, "run the critical-path attribution sweep over the read-ahead grid")
		critpathJS  = flag.String("critpath-json", "", "write the critical-path sweep (JSON) to this file ('-' for stdout)")
		pipeline    = flag.Bool("pipeline", false, "run the pipeline-vs-file grid: stream-to-stream channels against write-then-read")
		pipelineJS  = flag.String("pipeline-json", "", "write the pipeline grid (JSON) to this file ('-' for stdout)")
		scale       = flag.Bool("scale", false, "run the runtime scale curve (wall-clock per-message cost, 4→1024 ranks)")
		scaleJS     = flag.String("scale-json", "", "write the scale curve (JSON) to this file ('-' for stdout)")
		scaleMax    = flag.Int("scale-max", 1024, "largest rank count of the -scale sweep (CI smokes 128)")
		serve       = flag.String("serve", "", "serve live telemetry (/metrics /trace /critpath /healthz) on this address during the -trace/-gantt/-metrics run, and keep serving after it until Ctrl-C")
		platforms   = flag.Bool("platforms", false, "sweep all platforms incl. the CM-5 (extension)")
		scaling     = flag.Bool("scaling", false, "strong-scaling sweep to 64 nodes with linear vs tree collectives (extension)")
		verify      = flag.Bool("verify", false, "verify data integrity after every input phase")
		check       = flag.Bool("check", true, "fail if a table violates the paper's shape criteria")
		alloc       = flag.Bool("alloc", false, "measure real allocs/op on the pooled hot paths")
		allocJS     = flag.String("alloc-json", "", "write the allocation table (JSON) to this file ('-' for stdout)")
		allocCheck  = flag.String("alloc-check", "", "diff a fresh allocation table against this baseline JSON; fail on >10% regression")
	)
	flag.Parse()
	if !*all && *table == 0 && !*ablations && !*stats && !*platforms && !*scaling &&
		!*twophase && *twophaseJS == "" && !*planner && *plannerJS == "" &&
		!*readahead && *readaheadJS == "" && !*pipeline && *pipelineJS == "" &&
		!*critpathF && *critpathJS == "" && !*scale && *scaleJS == "" && *serve == "" &&
		!*alloc && *allocJS == "" && *allocCheck == "" &&
		*traceOut == "" && !*gantt && !*metrics && *metricsJS == "" {
		*all = true
	}

	if *alloc || *allocJS != "" || *allocCheck != "" {
		cells, err := bench.AllocTable()
		if err != nil {
			fatal(err)
		}
		if *alloc {
			bench.WriteAllocTable(os.Stdout, cells)
			fmt.Println()
		}
		if *allocJS != "" {
			out := os.Stdout
			if *allocJS != "-" {
				f, err := os.Create(*allocJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := bench.WriteAllocJSON(out, cells); err != nil {
				fatal(err)
			}
		}
		if *allocCheck != "" {
			baseline, err := bench.ReadAllocJSON(*allocCheck)
			if err != nil {
				fatal(err)
			}
			if err := bench.CheckAllocRegression(cells, baseline); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dstream-bench: allocation table within 10%% of %s\n", *allocCheck)
		}
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
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteChromeJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
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
			out := os.Stdout
			if *metricsJS != "-" {
				f, err := os.Create(*metricsJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := mon.WriteJSON(out); err != nil {
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

	if *twophase || *twophaseJS != "" {
		pts, err := bench.TwoPhaseSweep()
		if err != nil {
			fatal(err)
		}
		if *twophase {
			formatTwoPhase(os.Stdout, pts)
		}
		if *twophaseJS != "" {
			out := os.Stdout
			if *twophaseJS != "-" {
				f, err := os.Create(*twophaseJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pts); err != nil {
				fatal(err)
			}
		}
		// The acceptance bar for the strategy: at least one configuration
		// where aggregation beats both classic paths outright.
		wins := 0
		for _, p := range pts {
			if p.TwoPhase < p.Funnel && p.TwoPhase < p.Parallel {
				wins++
			}
		}
		if wins == 0 {
			fatal(fmt.Errorf("two-phase never beat both funnel and parallel — aggregation is not paying for its shuffle"))
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: two-phase wins %d of %d grid cells outright\n", wins, len(pts))
	}

	if *planner || *plannerJS != "" {
		grid, err := bench.PlannerSweep()
		if err != nil {
			fatal(err)
		}
		if *planner {
			formatPlanner(os.Stdout, grid)
		}
		if *plannerJS != "" {
			out := os.Stdout
			if *plannerJS != "-" {
				f, err := os.Create(*plannerJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(grid); err != nil {
				fatal(err)
			}
		}
		// The acceptance bar for the cost model: byte identity in every
		// cell, and Auto within 10% of the best static choice on ≥90% of
		// the grid — a planner may mis-rank near-ties, never lose big.
		if err := bench.CheckPlanner(grid, bench.PlannerTolerance, bench.PlannerMinFraction); err != nil {
			fatal(err)
		}
		matched := 0
		for _, p := range grid.Write {
			if p.Matched {
				matched++
			}
		}
		for _, p := range grid.Read {
			if p.Matched {
				matched++
			}
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: planner matched the static oracle on %d of %d grid cells, all byte-identical\n",
			matched, len(grid.Write)+len(grid.Read))
	}

	if *readahead || *readaheadJS != "" {
		pts, err := bench.ReadAheadSweep()
		if err != nil {
			fatal(err)
		}
		if *readahead {
			formatReadAhead(os.Stdout, pts)
		}
		if *readaheadJS != "" {
			out := os.Stdout
			if *readaheadJS != "-" {
				f, err := os.Create(*readaheadJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pts); err != nil {
				fatal(err)
			}
		}
		// The acceptance bar for the pipeline: read-ahead must lower the
		// refill stall on at least half the grid, and never corrupt data.
		wins := 0
		for _, p := range pts {
			if !p.Identical {
				fatal(fmt.Errorf("read-ahead cell %s/%s depth %d delivered wrong bytes", p.Platform, p.Strategy, p.Depth))
			}
			if p.StallAhead < p.StallSync {
				wins++
			}
		}
		if 2*wins < len(pts) {
			fatal(fmt.Errorf("read-ahead lowered the refill stall on only %d of %d grid cells — the prefetch is not overlapping", wins, len(pts)))
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: read-ahead lowers the refill stall on %d of %d grid cells\n", wins, len(pts))
	}

	if *pipeline || *pipelineJS != "" {
		pts, err := bench.PipelineSweep()
		if err != nil {
			fatal(err)
		}
		if *pipeline {
			formatPipeline(os.Stdout, pts)
		}
		if *pipelineJS != "" {
			out := os.Stdout
			if *pipelineJS != "-" {
				f, err := os.Create(*pipelineJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pts); err != nil {
				fatal(err)
			}
		}
		// The acceptance bar for the channel subsystem: byte identity with
		// the file path in every cell, pipeline faster on at least half.
		if err := bench.CheckPipeline(pts); err != nil {
			fatal(err)
		}
		wins := 0
		for _, p := range pts {
			if p.PipelineSeconds < p.FileSeconds {
				wins++
			}
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: pipeline beats write-then-read on %d of %d grid cells, all byte-identical\n",
			wins, len(pts))
	}

	if *critpathF || *critpathJS != "" {
		pts, err := bench.CritPathSweep()
		if err != nil {
			fatal(err)
		}
		if *critpathF {
			formatCritPath(os.Stdout, pts)
		}
		if *critpathJS != "" {
			out := os.Stdout
			if *critpathJS != "-" {
				f, err := os.Create(*critpathJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pts); err != nil {
				fatal(err)
			}
		}
		// The acceptance bars for the analyzer: every rank's wall time is
		// attributed to named categories, and the span-graph stall sums agree
		// with the independently-observed stall histograms within 5%.
		for _, p := range pts {
			if p.NamedFractionMin < 0.9 {
				fatal(fmt.Errorf("critpath cell %s/%s depth %d attributes only %.1f%% of a rank's wall time",
					p.Platform, p.Strategy, p.Depth, 100*p.NamedFractionMin))
			}
			if !p.Pass() {
				fatal(fmt.Errorf("critpath cell %s/%s depth %d: span stalls (refill %.4f, shuffle %.4f) disagree with metric sums (refill %.4f, shuffle %.4f) by >5%%",
					p.Platform, p.Strategy, p.Depth, p.RefillSpan, p.ShuffleSpan, p.RefillMetric, p.ShuffleMetric))
			}
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: critpath attribution complete and metric-consistent on all %d grid cells\n", len(pts))
	}

	if *scale || *scaleJS != "" {
		pts, err := bench.ScaleSweep(*scaleMax)
		if err != nil {
			fatal(err)
		}
		if *scale {
			formatScale(os.Stdout, pts)
		}
		if *scaleJS != "" {
			out := os.Stdout
			if *scaleJS != "-" {
				f, err := os.Create(*scaleJS)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pts); err != nil {
				fatal(err)
			}
		}
		// The acceptance bar for the mailbox rings: the per-message wall
		// cost must not climb past 1.5x its 8-rank value anywhere on the
		// curve — the signature of a lock convoy or root funnel at scale.
		if err := bench.CheckScaleCurve(pts, 1.5); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dstream-bench: per-message cost within 1.5x of the 8-rank baseline across all %d cells\n", len(pts))
	}

	if *stats {
		if err := bench.OpProfile(os.Stdout, pcxx.Paragon(), 4, 512); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *platforms {
		results, err := bench.RunPlatformSweep(4, 512)
		if err != nil {
			fatal(err)
		}
		bench.FormatPlatformSweep(os.Stdout, results)
	}

	if *scaling {
		prof := pcxx.Challenge()
		procCounts := []int{1, 2, 4, 8, 16, 32, 64}
		pts, err := bench.RunScalingSweep(prof, 2048, procCounts)
		if err != nil {
			fatal(err)
		}
		bench.FormatScalingSweep(os.Stdout, prof, 2048, pts)
	}
}

func runAblations() {
	paragon := pcxx.Paragon()
	fmt.Println("Ablation experiments (virtual seconds, paragon profile unless noted)")
	fmt.Println("---------------------------------------------------------------------")

	sorted, unsorted, err := bench.AblationSortedVsUnsorted(paragon, 4, 512)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("read vs unsortedRead (512 segs, changed distribution):\n")
	fmt.Printf("  sorted read  %8.3f s\n  unsortedRead %8.3f s   (%.1f%% of sorted — §3's communication saving)\n\n",
		sorted, unsorted, 100*unsorted/sorted)

	for _, segs := range []int{64, 8192} {
		funnel, parallel, err := bench.AblationMetadataPath(paragon, 8, segs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metadata path (%d segments, 8 procs): funnel %.3f s, parallel %.3f s → %s wins\n",
			segs, funnel, parallel, map[bool]string{true: "funnel", false: "parallel"}[funnel <= parallel])
	}
	fmt.Println()

	inter, sep, err := bench.AblationInterleave(paragon, 4, 256)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("interleaving (5 field arrays, 256 segs): one record %.3f s, five records %.3f s\n\n", inter, sep)

	fmt.Println("flush granularity (512 segs total):")
	for _, records := range []int{1, 4, 16} {
		secs, err := bench.AblationFlushGranularity(paragon, 4, 512, records)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %2d flush(es): %8.3f s\n", records, secs)
	}
	fmt.Println()

	same, changed, err := bench.AblationRedistribute(paragon, 512)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("restart (512 segs): same layout %.3f s, changed procs+distribution %.3f s (two-phase read cost)\n\n",
		same, changed)

	syncT, asyncT, err := bench.AblationAsyncOverlap(paragon, 4, 512, 4, 0.5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("async write-behind (4 rounds of 0.5 s compute + checkpoint): sync %.3f s, async %.3f s (overlap saves %.3f s)\n\n",
		syncT, asyncT, syncT-asyncT)

	chanS, tcpS, err := bench.AblationTransport(pcxx.Challenge(), 4, 128)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("transport (challenge profile): chan %.6f vs tcp %.6f virtual s — identical=%v\n",
		chanS, tcpS, chanS == tcpS)
}

func formatTwoPhase(w *os.File, pts []bench.StrategyPoint) {
	fmt.Fprintln(w, "Two-phase collective buffering ablation (virtual seconds, SCF write+read)")
	fmt.Fprintln(w, "--------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %6s %8s %9s %7s %10s %10s %10s   %s\n",
		"platform", "procs", "segments", "particles", "stripe", "funnel", "parallel", "twophase", "winner")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %6d %8d %9d %7d %10.4f %10.4f %10.4f   %s\n",
			p.Platform, p.NProcs, p.Segments, p.Particles, p.StripeFactor,
			p.Funnel, p.Parallel, p.TwoPhase, p.Winner)
	}
	fmt.Fprintln(w)
}

func formatPlanner(w *os.File, g bench.PlannerGrid) {
	fmt.Fprintln(w, "Planner-vs-oracle grid: StrategyAuto against the best static choice per cell")
	fmt.Fprintln(w, "-----------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %6s %9s %7s %10s %10s %-9s %-9s %7s %5s\n",
		"platform", "procs", "particles", "stripe", "auto", "best", "oracle", "pick", "ratio", "ok")
	for _, p := range g.Write {
		fmt.Fprintf(w, "%-10s %6d %9d %7d %10.4f %10.4f %-9s %-9s %7.3f %5v\n",
			p.Platform, p.NProcs, p.Particles, p.StripeFactor,
			p.Auto, p.Best, p.BestStrategy, p.AutoPick, p.AutoOverBest, p.Matched)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %9s %9s %10s %10s %-15s %7s %5s\n",
		"platform", "particles", "compute", "auto", "best", "oracle", "ratio", "ok")
	for _, p := range g.Read {
		fmt.Fprintf(w, "%-10s %9d %9.3f %10.4f %10.4f %-15s %7.3f %5v\n",
			p.Platform, p.Particles, p.ComputePerRecord,
			p.Auto, p.Best, p.BestChoice, p.AutoOverBest, p.Matched)
	}
	fmt.Fprintln(w)
}

func formatCritPath(w *os.File, pts []bench.CritPathPoint) {
	fmt.Fprintln(w, "Critical-path attribution sweep (virtual seconds, SCF write+read pipeline)")
	fmt.Fprintln(w, "--------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %-9s %5s %9s %6s %6s %8s %12s %12s %12s\n",
		"platform", "strategy", "depth", "makespan", "spans", "flows", "named%", "refill", "shuffle", "pfs wait")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %-9s %5d %9.4f %6d %6d %7.1f%% %12.4f %12.4f %12.4f\n",
			p.Platform, p.Strategy, p.Depth, p.Makespan, p.Spans, p.Flows,
			100*p.NamedFractionMin, p.RefillSpan, p.ShuffleSpan, p.Categories["pfs wait"])
	}
	fmt.Fprintln(w)
}

func formatReadAhead(w *os.File, pts []bench.ReadAheadPoint) {
	fmt.Fprintln(w, "Read-ahead prefetch ablation (summed refill stall, virtual seconds, SCF input)")
	fmt.Fprintln(w, "------------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %-9s %5s %6s %8s %8s %12s %12s %6s\n",
		"platform", "strategy", "depth", "procs", "records", "stripe", "stall(sync)", "stall(ahead)", "hits")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %-9s %5d %6d %8d %8d %12.4f %12.4f %6d\n",
			p.Platform, p.Strategy, p.Depth, p.NProcs, p.Records, p.StripeFactor,
			p.StallSync, p.StallAhead, p.PrefetchHits)
	}
	fmt.Fprintln(w)
}

func formatPipeline(w *os.File, pts []bench.PipelinePoint) {
	fmt.Fprintln(w, "Pipeline-vs-file grid (virtual seconds, stream-to-stream channel against write-then-read)")
	fmt.Fprintln(w, "------------------------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %5s %5s %6s %9s %8s %9s %10s %10s %8s %6s\n",
		"platform", "prod", "cons", "elems", "elem B", "records", "compute", "pipeline", "file", "speedup", "bytes")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %5d %5d %6d %9d %8d %9.3f %10.4f %10.4f %7.2fx %6v\n",
			p.Platform, p.Producers, p.Consumers, p.Elems, p.ElemBytes, p.Records,
			p.ComputePerRecord, p.PipelineSeconds, p.FileSeconds, p.Speedup, p.BytesMatch)
	}
	fmt.Fprintln(w)
}

func formatScale(w *os.File, pts []bench.ScalePoint) {
	fmt.Fprintln(w, "Runtime scale curve (wall-clock per-message cost, neighbor train + sharded collectives)")
	fmt.Fprintln(w, "---------------------------------------------------------------------------------------")
	fmt.Fprintf(w, "%6s %9s %10s %10s %10s %8s %8s %8s\n",
		"nprocs", "messages", "wall (s)", "µs/msg", "ringputs", "spills", "stalls", "parks")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %9d %10.4f %10.3f %10d %8d %8d %8d\n",
			p.NProcs, p.Messages, p.WallSeconds, p.PerMsgMicros,
			p.RingPuts, p.Spills, p.FullStalls, p.ConsumerParks)
	}
	fmt.Fprintln(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstream-bench:", err)
	os.Exit(1)
}
