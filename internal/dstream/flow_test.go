package dstream

import (
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestShuffleWriteFlow pins the dstream write chain's causal edges on the
// two-phase path: every rank's encode work (ostream.Insert spans) feeds its
// record write span, and every contributor's shuffle span feeds the
// aggregator write spans that persist its bytes — with edges pointing at
// spans that exist, on the right ranks, in timestamp order.
func TestShuffleWriteFlow(t *testing.T) {
	const nprocs, nElems = 4, 64
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	mon := dsmon.NewTracing()
	_, err := machine.Run(machine.Config{
		NProcs: nprocs, Profile: vtime.Paragon(), FS: fs, Monitor: mon,
	}, func(n *machine.Node) error {
		d, err := distr.New(nElems, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "f", WithStrategy(StrategyTwoPhase))
		if err != nil {
			return err
		}
		c, err := collection.New[plist](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, p *plist) { *p = mkPlist(g) })
		if err := Insert[plist](s, c); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := mon.Recorder()
	byID := map[dsmon.SpanID]dsmon.Event{}
	for _, ev := range rec.Events() {
		if ev.ID != 0 {
			byID[ev.ID] = ev
		}
	}
	var encodeEdges, shuffleEdges int
	shuffleSinkRanks := map[int]bool{}
	for _, f := range rec.Flows() {
		from, okF := byID[f.From]
		to, okT := byID[f.To]
		switch f.Kind {
		case "encode":
			encodeEdges++
			if !okF || !okT {
				t.Fatalf("encode edge %v has a dangling endpoint", f)
			}
			if !strings.HasPrefix(from.Name, "ostream.Insert") {
				t.Fatalf("encode edge source = %+v, want an ostream.Insert span", from)
			}
			if !strings.HasPrefix(to.Name, "ostream.Write") {
				t.Fatalf("encode edge sink = %+v, want an ostream.Write span", to)
			}
			if from.Node != to.Node {
				t.Fatalf("encode edge crosses ranks: %+v → %+v", from, to)
			}
			if from.End > to.End {
				t.Fatalf("insert span ends (%v) after its write span (%v)", from.End, to.End)
			}
		case "shuffle":
			shuffleEdges++
			if !okF || !okT {
				t.Fatalf("shuffle edge %v has a dangling endpoint", f)
			}
			if !strings.HasPrefix(from.Name, "twophase.shuffle") {
				t.Fatalf("shuffle edge source = %+v, want a twophase.shuffle span", from)
			}
			if !strings.HasPrefix(to.Name, "ostream.Write") {
				t.Fatalf("shuffle edge sink = %+v, want the aggregator's ostream.Write span", to)
			}
			if from.Start > to.End {
				t.Fatalf("shuffle span starts (%v) after the stripe write ended (%v)", from.Start, to.End)
			}
			shuffleSinkRanks[to.Node] = true
		}
	}
	if encodeEdges == 0 {
		t.Fatal("no encode edges recorded")
	}
	if shuffleEdges == 0 {
		t.Fatal("no shuffle edges recorded")
	}
	// The striped store has 3 devices, so the plan elects min(3, nprocs)
	// aggregators; shuffle edges must converge on aggregator ranks only.
	if len(shuffleSinkRanks) > 3 {
		t.Fatalf("shuffle edges target %d ranks, want at most the 3 aggregators", len(shuffleSinkRanks))
	}
}
