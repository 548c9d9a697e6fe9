// Command scf-sim is a complete miniature of the application the paper's
// benchmark was carved from: the Self Consistent Field N-body code [12][9],
// with the I/O done through pC++/streams. It runs the particle dynamics on
// a simulated multicomputer, periodically saves the particle data for later
// analysis (the SCF code's "output only" pattern, §4.3), checkpoints
// through the crash-consistent manager, and can resume a previous run —
// on a different processor count.
//
// Usage:
//
//	scf-sim -procs 8 -segments 256 -steps 50 -save-every 10 -dir /tmp/scf
//	scf-sim -procs 4 -dir /tmp/scf -resume           # continue the same run
//	dsdump /tmp/scf/particles.0042                    # inspect a frame
package main

import (
	"flag"
	"fmt"
	"os"

	pcxx "pcxxstreams"
	"pcxxstreams/internal/scf"
)

func main() {
	var (
		procs     = flag.Int("procs", 8, "number of simulated compute nodes")
		segments  = flag.Int("segments", 256, "number of particle segments")
		particles = flag.Int("particles", scf.DefaultParticles, "particles per segment")
		steps     = flag.Int("steps", 50, "total dynamics steps")
		saveEvery = flag.Int("save-every", 10, "emit a particle frame every N steps (0 = never)")
		ckEvery   = flag.Int("checkpoint-every", 25, "checkpoint every N steps (0 = never)")
		ckSlots   = flag.Int("checkpoint-slots", 2, "rotating checkpoint slots")
		dt        = flag.Float64("dt", 0.01, "time step")
		dir       = flag.String("dir", "", "directory for output files (default: in-memory only)")
		resume    = flag.Bool("resume", false, "resume from the newest valid checkpoint in -dir")
		platform  = flag.String("platform", "paragon", "cost profile: paragon|challenge|cm5")
		dist      = flag.String("dist", "cyclic", "distribution: block|cyclic")
		metrics   = flag.Bool("metrics", false, "print the run's dsmon metrics (Prometheus text) to stderr")
		metricsJS = flag.String("metrics-json", "", "write the run's dsmon metrics snapshot (JSON) to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace (JSON) of the run to this file")
		critpathF = flag.Bool("critpath", false, "print the run's critical-path attribution report to stderr")
		serve     = flag.String("serve", "", "serve live telemetry (/metrics /trace /critpath /healthz) on this address for the run's duration (':0' picks a free port)")
	)
	flag.Parse()

	prof, ok := pcxx.ProfileByName(*platform)
	if !ok {
		fatal(fmt.Errorf("unknown platform %q", *platform))
	}
	var mode pcxx.Mode
	switch *dist {
	case "block":
		mode = pcxx.Block
	case "cyclic":
		mode = pcxx.Cyclic
	default:
		fatal(fmt.Errorf("unknown distribution %q", *dist))
	}
	var fs *pcxx.FileSystem
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
		fs = pcxx.NewFileSystem(prof, pcxx.OSFactory(*dir))
	} else {
		fs = pcxx.NewMemFS(prof)
	}

	var mon *pcxx.Monitor
	if *metrics || *metricsJS != "" || *traceOut != "" || *critpathF || *serve != "" {
		if *traceOut != "" || *critpathF || *serve != "" {
			// The live endpoint and the critical-path analyzer both need the
			// span graph, so serving implies tracing.
			mon = pcxx.NewTracingMonitor()
		} else {
			mon = pcxx.NewMonitor()
		}
	}

	if *serve != "" {
		srv, err := pcxx.ServeTelemetry(*serve, mon)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		// Parsed by `make telemetry-smoke` — keep the format stable.
		fmt.Printf("telemetry: http://%s\n", srv.Addr())
	}

	cfg := pcxx.Config{NProcs: *procs, Profile: prof, FS: fs, Monitor: mon}
	res, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		d, err := pcxx.NewDistribution(*segments, *procs, mode, 0)
		if err != nil {
			return err
		}
		g, err := pcxx.NewCollection[scf.Segment](n, d)
		if err != nil {
			return err
		}

		startStep := 0
		if *resume {
			epoch, err := pcxx.RestoreCheckpoint[scf.Segment](n, "scf.ck", *ckSlots, g)
			if err != nil {
				return fmt.Errorf("resume: %w", err)
			}
			startStep = int(epoch)
			if n.Rank() == 0 {
				fmt.Printf("resumed from checkpoint at step %d on %d nodes\n", startStep, *procs)
			}
		} else {
			g.Apply(func(gi int, s *scf.Segment) { s.Fill(gi, *particles) })
		}

		var mgr *pcxx.CheckpointManager
		if *ckEvery > 0 {
			if mgr, err = pcxx.NewCheckpointManager(n, "scf.ck", *ckSlots); err != nil {
				return err
			}
		}

		for step := startStep + 1; step <= *steps; step++ {
			g.Apply(func(_ int, s *scf.Segment) { s.Step(*dt) })

			if *saveEvery > 0 && step%*saveEvery == 0 {
				// The SCF output pattern: save the particle data for later
				// analysis with three lines of stream code.
				name := fmt.Sprintf("particles.%04d", step)
				s, err := pcxx.Open(n, d, name)
				if err != nil {
					return err
				}
				if err := pcxx.Insert[scf.Segment](s, g); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
				if err := s.Close(); err != nil {
					return err
				}
				if n.Rank() == 0 {
					fmt.Printf("step %4d: frame %s written (%d segments)\n", step, name, *segments)
				}
			}
			if mgr != nil && step%*ckEvery == 0 {
				if err := pcxx.SaveCheckpoint[scf.Segment](mgr, uint64(step), g); err != nil {
					return err
				}
				if n.Rank() == 0 {
					fmt.Printf("step %4d: checkpoint (epoch %d)\n", step, step)
				}
			}
		}

		// Final fingerprint for reproducibility checks across runs.
		local := 0.0
		g.Apply(func(_ int, s *scf.Segment) { local += s.Checksum() })
		total, err := n.Comm().Allreduce(local, 0)
		if err != nil {
			return err
		}
		if n.Rank() == 0 {
			fmt.Printf("final state fingerprint: %.9f\n", total)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simulated %d nodes on %s: %.3f virtual seconds (I/O included)\n",
		*procs, prof.Name, res.Elapsed)
	if *dir != "" {
		fmt.Printf("output files in %s — inspect frames with: go run ./cmd/dsdump %s/particles.NNNN\n", *dir, *dir)
	}
	if *metrics {
		if err := mon.WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *metricsJS != "" {
		f, err := os.Create(*metricsJS)
		if err != nil {
			fatal(err)
		}
		if err := mon.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsJS)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := mon.WriteChromeJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s — open in chrome://tracing\n", *traceOut)
	}
	if *critpathF {
		if err := pcxx.AnalyzeCritPath(mon.Recorder()).WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scf-sim:", err)
	os.Exit(1)
}
