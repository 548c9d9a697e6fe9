package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

func cfg(n int) Config {
	return Config{NProcs: n, Profile: vtime.Challenge()}
}

func TestRunBasics(t *testing.T) {
	visited := make([]bool, 4)
	res, err := Run(cfg(4), func(n *Node) error {
		if n.Size() != 4 {
			return fmt.Errorf("size %d", n.Size())
		}
		visited[n.Rank()] = true
		n.Compute(float64(n.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range visited {
		if !v {
			t.Fatalf("rank %d never ran", r)
		}
	}
	if res.Elapsed != 3 {
		t.Fatalf("Elapsed = %v, want 3", res.Elapsed)
	}
	if len(res.NodeTimes) != 4 || res.NodeTimes[2] != 2 {
		t.Fatalf("NodeTimes = %v", res.NodeTimes)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{NProcs: 0}, func(*Node) error { return nil }); err == nil {
		t.Fatal("NProcs=0 accepted")
	}
	if _, err := Run(Config{NProcs: 1, Transport: 99}, func(*Node) error { return nil }); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("node failure")
	_, err := Run(cfg(3), func(n *Node) error {
		if n.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	_, err := Run(cfg(2), func(n *Node) error {
		if n.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic converted", err)
	}
}

// TestFailedNodeDoesNotDeadlockCollectives: rank 1 dies before the
// rendezvous; rank 0 must be released with an error, not hang.
func TestFailedNodeDoesNotDeadlockCollectives(t *testing.T) {
	_, err := Run(cfg(2), func(n *Node) error {
		if n.Rank() == 1 {
			return errors.New("early death")
		}
		f, ferr := n.Open("f", true)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if _, aerr := f.ParallelAppend([]byte("data")); aerr == nil {
			return errors.New("parallel append succeeded despite dead peer")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "early death") {
		t.Fatalf("err = %v", err)
	}
}

// TestFailedNodeDoesNotDeadlockMessaging: a peer blocked in Recv is
// unblocked when another node fails.
func TestFailedNodeDoesNotDeadlockMessaging(t *testing.T) {
	_, err := Run(cfg(2), func(n *Node) error {
		if n.Rank() == 1 {
			return errors.New("croak")
		}
		if _, rerr := n.Comm().Endpoint().Recv(1, 42); rerr == nil {
			return errors.New("recv returned data from a dead peer")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "croak") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunReportsTheCauseNotTheCollateral: when a node fails, the machine
// closes the transport under its peers so they cannot hang, and a peer that
// was mid-receive fails with that closure. The run's error is the failure
// that came first — the cause — whichever rank it was on, not the
// lowest-ranked casualty of the shutdown it triggered.
func TestRunReportsTheCauseNotTheCollateral(t *testing.T) {
	cause := errors.New("rank 2 found a bad record")
	_, err := Run(cfg(3), func(n *Node) error {
		if n.Rank() == 2 {
			return cause
		}
		_, rerr := n.Comm().Endpoint().Recv(2, 7) // never sent: fails when the machine shuts the transport
		return rerr
	})
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("err = %v, want node 2's", err)
	}
}

func TestNodeCollectivesWired(t *testing.T) {
	res, err := Run(cfg(5), func(n *Node) error {
		sum, err := n.Comm().Allreduce(1, 0 /* OpSum */)
		if err != nil {
			return err
		}
		if sum != 5 {
			return fmt.Errorf("allreduce sum = %v", sum)
		}
		return n.Comm().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tm := range res.NodeTimes {
		if tm != res.NodeTimes[0] {
			t.Fatalf("rank %d time %v != %v after barrier", r, tm, res.NodeTimes[0])
		}
	}
}

func TestNodeFSWired(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	c := cfg(3)
	c.FS = fs
	_, err := Run(c, func(n *Node) error {
		f, err := n.Open("out", true)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.ParallelAppend([]byte{byte('0' + n.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := fs.Image("out")
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != "012" {
		t.Fatalf("image = %q", img)
	}
}

func TestCopyCost(t *testing.T) {
	prof := vtime.Challenge()
	res, err := Run(Config{NProcs: 1, Profile: prof}, func(n *Node) error {
		n.CopyCost(int64(prof.MemCopyBW)) // exactly 1 virtual second
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 1 {
		t.Fatalf("Elapsed = %v, want 1", res.Elapsed)
	}
}

// TestDeterministicAcrossRunsAndTransports: the same SPMD program yields
// identical virtual times on repeated runs and on both transports.
func TestDeterministicAcrossRunsAndTransports(t *testing.T) {
	body := func(n *Node) error {
		f, err := n.Open("ck", true)
		if err != nil {
			return err
		}
		defer f.Close()
		for i := 0; i < 3; i++ {
			if _, err := f.ParallelAppend(make([]byte, 1000*(n.Rank()+1))); err != nil {
				return err
			}
			if _, _, err := n.Comm().Allgather(make([]byte, 64)); err != nil {
				return err
			}
		}
		return n.Comm().Barrier()
	}
	run := func(kind TransportKind) []float64 {
		res, err := Run(Config{NProcs: 4, Profile: vtime.Paragon(), Transport: kind}, body)
		if err != nil {
			t.Fatal(err)
		}
		return res.NodeTimes
	}
	a := run(TransportChan)
	b := run(TransportChan)
	c := run(TransportTCP)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs across runs: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("rank %d differs across transports: chan %v vs tcp %v", i, a[i], c[i])
		}
	}
}

// TestTraceCapturesOps: a traced run records one io interval per
// file-system operation, tagged with the acting node.
func TestTraceCapturesOps(t *testing.T) {
	mon := dsmon.NewTracing()
	_, err := Run(Config{NProcs: 3, Profile: vtime.Challenge(), Monitor: mon}, func(n *Node) error {
		f, err := n.Open("t", true)
		if err != nil {
			return err
		}
		defer f.Close()
		if n.Rank() == 0 {
			if err := f.WriteAt([]byte("x"), 0); err != nil {
				return err
			}
		}
		_, err = f.ParallelAppend([]byte{byte(n.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 independent write ("io") + 3 participants of one parallel append
	// (filed under "collective", like every rendezvous operation).
	var ops []dsmon.Event
	nodes := map[int]bool{}
	for _, e := range mon.Recorder().Events() {
		if e.Cat == "io" || strings.HasPrefix(e.Name, "ParallelAppend") {
			ops = append(ops, e)
			nodes[e.Node] = true
		}
	}
	if len(ops) != 4 || ops[0].Cat != "io" {
		t.Fatalf("recorded %d file-system events, want the write and 3 appends: %+v", len(ops), ops)
	}
	if len(nodes) != 3 {
		t.Fatalf("events span %d nodes, want 3", len(nodes))
	}
}

// TestMonitorLightsUpStack: one Monitor in the config yields metrics from
// the comm, collective and pfs layers plus spans from all of them on the
// monitor's recorder — the single-flag contract of the observability layer.
func TestMonitorLightsUpStack(t *testing.T) {
	mon := dsmon.NewTracing()
	_, err := Run(Config{NProcs: 3, Profile: vtime.Challenge(), Monitor: mon}, func(n *Node) error {
		f, err := n.Open("m", true)
		if err != nil {
			return err
		}
		defer f.Close()
		if n.Rank() == 0 {
			if err := f.WriteAt([]byte("x"), 0); err != nil {
				return err
			}
		}
		if _, err := f.ParallelAppend([]byte{byte(n.Rank())}); err != nil {
			return err
		}
		if n.Rank() == 0 {
			return n.Comm().Endpoint().Send(1, 7, []byte("hi"))
		}
		if n.Rank() == 1 {
			_, err := n.Comm().Endpoint().Recv(0, 7)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := mon.Registry().Snapshot()
	counts := map[string]int64{}
	for _, c := range snap.Counters {
		counts[c.Name] += c.Value
	}
	if counts["comm_messages_sent_total"] != 1 {
		t.Fatalf("comm_messages_sent_total = %d, want 1 (%+v)", counts["comm_messages_sent_total"], snap.Counters)
	}
	if counts["pfs_ops_total"] == 0 {
		t.Fatalf("pfs_ops_total never incremented: %+v", snap.Counters)
	}
	cats := map[string]bool{}
	for _, e := range mon.Recorder().Events() {
		cats[e.Cat] = true
	}
	for _, want := range []string{"io", "comm", "collective"} {
		if !cats[want] {
			t.Fatalf("no %q spans recorded; categories = %v", want, cats)
		}
	}
}

// TestSequentialRunsOnSharedFS: several runs over one file system see each
// other's files (write phase then read phase as separate machines, the
// examples' pattern), and per-run virtual clocks start fresh.
func TestSequentialRunsOnSharedFS(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	c1 := cfg(2)
	c1.FS = fs
	res1, err := Run(c1, func(n *Node) error {
		f, err := n.Open("state", true)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.ParallelAppend([]byte{byte('A' + n.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := Config{NProcs: 3, Profile: vtime.Challenge(), FS: fs}
	res2, err := Run(c2, func(n *Node) error {
		f, err := n.Open("state", false)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, 2)
		if err := f.ReadAt(buf, 0); err != nil {
			return err
		}
		if string(buf) != "AB" {
			t.Errorf("rank %d read %q", n.Rank(), buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh clocks per run: run 2's elapsed is not inflated by run 1's.
	if res2.Elapsed >= res1.Elapsed+1 {
		t.Fatalf("run 2 elapsed %v inherited run 1's clock (%v)", res2.Elapsed, res1.Elapsed)
	}
	// Aggregate stats accumulated across both runs on the shared FS.
	if res2.IO.Opens < res1.IO.Opens {
		t.Fatalf("IO stats went backwards: %d then %d opens", res1.IO.Opens, res2.IO.Opens)
	}
}
