package pcxxstreams

import (
	"errors"
	"fmt"
	"testing"
)

// point is a minimal element type exercising the façade end to end.
type point struct {
	ID  int64
	Pos []float64
}

func (p *point) StreamInsert(e *Encoder) {
	e.Int64(p.ID)
	e.Float64Slice(p.Pos)
}

func (p *point) StreamExtract(d *Decoder) {
	p.ID = d.Int64()
	p.Pos = d.Float64Slice()
}

// TestFacadeRoundTrip drives the whole public API: machine, distribution,
// collection, output stream, input stream with a changed distribution.
func TestFacadeRoundTrip(t *testing.T) {
	cfg := Config{NProcs: 3, Profile: Challenge()}
	_, err := Run(cfg, func(n *Node) error {
		wd, err := NewDistribution(20, 3, Cyclic, 0)
		if err != nil {
			return err
		}
		g, err := NewCollection[point](n, wd)
		if err != nil {
			return err
		}
		g.Apply(func(gl int, p *point) {
			p.ID = int64(gl)
			p.Pos = []float64{float64(gl), float64(gl) * 2}
		})
		s, err := Open(n, wd, "facade")
		if err != nil {
			return err
		}
		if err := Insert[point](s, g); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		rd, err := NewDistribution(20, 3, Block, 0)
		if err != nil {
			return err
		}
		back, err := NewCollection[point](n, rd)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, rd, "facade")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := Extract[point](in, back); err != nil {
			return err
		}
		var bad error
		back.Apply(func(gl int, p *point) {
			if p.ID != int64(gl) || len(p.Pos) != 2 || p.Pos[1] != float64(gl)*2 {
				bad = fmt.Errorf("global %d corrupted: %+v", gl, *p)
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFieldOps(t *testing.T) {
	_, err := Run(Config{NProcs: 2, Profile: Challenge()}, func(n *Node) error {
		d, err := NewDistribution(8, 2, Block, 0)
		if err != nil {
			return err
		}
		g, err := NewCollection[point](n, d)
		if err != nil {
			return err
		}
		g.Apply(func(gl int, p *point) { p.ID = int64(gl * 10); p.Pos = []float64{1} })

		s, err := Open(n, d, "fields")
		if err != nil {
			return err
		}
		if err := InsertField(s, g, func(p *point) int64 { return p.ID }); err != nil {
			return err
		}
		if err := InsertFloat64Slice(s, g, func(p *point) []float64 { return p.Pos }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		back, err := NewCollection[point](n, d)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, d, "fields")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.UnsortedRead(); err != nil {
			return err
		}
		if err := ExtractField(in, back, func(p *point) *int64 { return &p.ID }); err != nil {
			return err
		}
		if err := ExtractFloat64Slice(in, back, func(p *point) *[]float64 { return &p.Pos }); err != nil {
			return err
		}
		var bad error
		back.Apply(func(gl int, p *point) {
			if p.ID != int64(gl*10) || len(p.Pos) != 1 {
				bad = fmt.Errorf("global %d: %+v", gl, *p)
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrorsExported(t *testing.T) {
	_, err := Run(Config{NProcs: 1, Profile: Challenge()}, func(n *Node) error {
		d, err := NewDistribution(4, 1, Block, 0)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "err")
		if err != nil {
			return err
		}
		defer s.Close()
		if werr := s.Write(); !errors.Is(werr, ErrOrder) {
			return fmt.Errorf("Write with no inserts: %v", werr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeReplicated(t *testing.T) {
	_, err := Run(Config{NProcs: 2, Profile: Challenge()}, func(n *Node) error {
		f, err := OpenReplicated(n, "rep", true)
		if err != nil {
			return err
		}
		if err := f.Write([]byte("hdr")); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if f, err = OpenReplicated(n, "rep", false); err != nil {
			return err
		}
		defer f.Close()
		got, err := f.Read(3)
		if err != nil {
			return err
		}
		if string(got) != "hdr" {
			return fmt.Errorf("read %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("paragon"); !ok {
		t.Fatal("paragon profile missing")
	}
	if _, ok := ProfileByName("vax"); ok {
		t.Fatal("unknown profile found")
	}
}

// TestFacadeGridAndTraceAndTree: the extension surface is reachable through
// the façade: 3-D grids, tracing, and — at 27 nodes, past the flat
// exchange's 16 — the tree collectives.
func TestFacadeGridAndTraceAndTree(t *testing.T) {
	mon := NewTracingMonitor()
	cfg := Config{NProcs: 27, Profile: Challenge(), Monitor: mon}
	res, err := Run(cfg, func(n *Node) error {
		g3, err := NewGrid3D(6, 6, 6, 3, 3, 3, Block, Block, Block, 0, 0, 0)
		if err != nil {
			return err
		}
		c, err := NewCollection[point](n, g3.Dist())
		if err != nil {
			return err
		}
		c.Apply(func(gl int, p *point) { p.ID = int64(gl) })
		s, err := Open(n, g3.Dist(), "g3")
		if err != nil {
			return err
		}
		if err := InsertField(s, c, func(p *point) int64 { return p.ID }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		// Read back on a flat BLOCK layout.
		d, err := NewDistribution(216, 27, Block, 0)
		if err != nil {
			return err
		}
		back, err := NewCollection[point](n, d)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, d, "g3")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := ExtractField(in, back, func(p *point) *int64 { return &p.ID }); err != nil {
			return err
		}
		var bad error
		back.Apply(func(gl int, p *point) {
			if p.ID != int64(gl) {
				bad = fmt.Errorf("global %d = %d", gl, p.ID)
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
	// One handle, one timeline: every layer's spans are on the monitor's
	// recorder.
	cats := map[string]bool{}
	for _, e := range mon.Recorder().Events() {
		cats[e.Cat] = true
	}
	for _, want := range []string{"io", "comm", "collective", "dstream"} {
		if !cats[want] {
			t.Fatalf("no %q spans on the monitor's timeline; categories = %v", want, cats)
		}
	}
	if res.Fanout == 0 {
		t.Fatal("27 nodes ran the flat collectives")
	}
}

// TestFacadeBalancedAndExplicit exercises the explicit-distribution
// constructors through the façade.
func TestFacadeBalancedAndExplicit(t *testing.T) {
	_, err := Run(Config{NProcs: 2, Profile: Challenge()}, func(n *Node) error {
		ed, err := NewExplicitDistribution([]int{1, 0, 1, 0}, 2)
		if err != nil {
			return err
		}
		if ed.Mode != ExplicitMode {
			return fmt.Errorf("mode = %v", ed.Mode)
		}
		bd, err := NewBalancedDistribution([]float64{5, 1, 1, 1, 1, 1}, 2)
		if err != nil {
			return err
		}
		if bd.LocalCount(0) >= bd.LocalCount(1) {
			return fmt.Errorf("balance did not shift elements: %d vs %d",
				bd.LocalCount(0), bd.LocalCount(1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
