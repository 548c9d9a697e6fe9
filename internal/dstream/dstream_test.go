package dstream

import (
	"errors"
	"fmt"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// particle-list element mirroring Figure 3 of the paper.
type plist struct {
	N    int64
	Mass []float64
	X    []float64
}

func (p *plist) StreamInsert(e *Encoder) {
	e.Int64(p.N)
	e.Float64Slice(p.Mass)
	e.Float64Slice(p.X)
}

func (p *plist) StreamExtract(d *Decoder) {
	p.N = d.Int64()
	p.Mass = d.Float64Slice()
	p.X = d.Float64Slice()
}

// mkPlist builds a deterministic, variable-sized element for global index g.
func mkPlist(g int) plist {
	n := g%5 + 1 // 1..5 particles: sizes vary across the array
	p := plist{N: int64(n)}
	for i := 0; i < n; i++ {
		p.Mass = append(p.Mass, float64(g)+float64(i)/10)
		p.X = append(p.X, float64(g*100+i))
	}
	return p
}

func plistEqual(a, b plist) bool {
	if a.N != b.N || len(a.Mass) != len(b.Mass) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.Mass {
		if a.Mass[i] != b.Mass[i] {
			return false
		}
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

func run(t *testing.T, nprocs int, fs *pfs.FileSystem, body func(n *machine.Node) error) machine.Result {
	t.Helper()
	res, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs}, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustDist(t *testing.T, n, p int, m distr.Mode, b int) *distr.Distribution {
	t.Helper()
	d, err := distr.New(n, p, m, b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writePlists writes one record of plist elements under dist d.
func writePlists(n *machine.Node, d *distr.Distribution, name string, opts Options) error {
	c, err := collection.New[plist](n, d)
	if err != nil {
		return err
	}
	c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
	s, err := Open(n, d, name, WithOptions(opts))
	if err != nil {
		return err
	}
	defer s.Close()
	if err := Insert[plist](s, c); err != nil {
		return err
	}
	return s.Write()
}

// readPlists reads one record into a collection under dist d.
func readPlists(n *machine.Node, d *distr.Distribution, name string, sorted bool) (*collection.Collection[plist], error) {
	c, err := collection.New[plist](n, d)
	if err != nil {
		return nil, err
	}
	s, err := OpenInput(n, d, name)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if sorted {
		err = s.Read()
	} else {
		err = s.UnsortedRead()
	}
	if err != nil {
		return nil, err
	}
	if err := Extract[plist](s, c); err != nil {
		return nil, err
	}
	return c, nil
}

// The Figure 2 state machine enforcement — write with nothing inserted,
// extract before read, one extract too many, read past the end, close with
// unwritten inserts, use after close, sticky errors — is TestFigure2Table's,
// which drives it over the file ends and the channel ends alike.

// --- open-time validation ---

func TestInputRejectsNonStreamFile(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		f, err := n.Open("junk", true)
		if err != nil {
			return err
		}
		if _, err := f.ParallelAppend([]byte("this is not a d/stream file at all")); err != nil {
			return err
		}
		f.Close()
		d := mustDist(t, 4, 2, distr.Block, 0)
		if _, err := OpenInput(n, d, "junk"); err == nil {
			return fmt.Errorf("non-stream file accepted")
		}
		return nil
	})
}

func TestInputRejectsMissingFile(t *testing.T) {
	// Opening a missing file creates an empty backend; header check fails.
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 1, fs, func(n *machine.Node) error {
		d := mustDist(t, 4, 1, distr.Block, 0)
		if _, err := OpenInput(n, d, "absent"); err == nil {
			return fmt.Errorf("missing file accepted")
		}
		return nil
	})
}

func TestElementCountMismatchRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		wd := mustDist(t, 10, 2, distr.Block, 0)
		if err := writePlists(n, wd, "f", Options{}); err != nil {
			return err
		}
		rd := mustDist(t, 12, 2, distr.Block, 0) // wrong N
		s, err := OpenInput(n, rd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err == nil {
			return fmt.Errorf("mismatched element count accepted")
		}
		return nil
	})
}

func TestMisalignedCollectionRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		sd := mustDist(t, 10, 2, distr.Block, 0)
		cd := mustDist(t, 10, 2, distr.Cyclic, 0)
		c, err := collection.New[plist](n, cd)
		if err != nil {
			return err
		}
		s, err := Open(n, sd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := Insert[plist](s, c); !errors.Is(err, ErrNotAligned) {
			return fmt.Errorf("misaligned insert: %v, want ErrNotAligned", err)
		}
		return nil
	})
}

// TestUnsortedFasterThanSorted: with a changed distribution, unsortedRead
// must beat sorted read (it skips the all-to-all), the §3 performance claim.
func TestUnsortedFasterThanSorted(t *testing.T) {
	elapsed := func(sorted bool) float64 {
		fs := pfs.NewMemFS(vtime.Paragon())
		res, err := machine.Run(machine.Config{NProcs: 4, Profile: vtime.Paragon(), FS: fs},
			func(n *machine.Node) error {
				wd, _ := distr.New(2000, 4, distr.Cyclic, 0)
				if err := writePlists(n, wd, "f", Options{}); err != nil {
					return err
				}
				n.Clock().Reset()
				rd, _ := distr.New(2000, 4, distr.Block, 0)
				_, err := readPlists(n, rd, "f", sorted)
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	sortedT, unsortedT := elapsed(true), elapsed(false)
	if unsortedT >= sortedT {
		t.Fatalf("unsortedRead (%v) not faster than read (%v)", unsortedT, sortedT)
	}
}

// TestIOFaultSurfacesEverywhere: an injected backend fault must turn into
// an error on every node, not a hang.
func TestIOFaultSurfacesEverywhere(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := fs.InjectFault("f", 2); err != nil {
		t.Fatal(err)
	}
	_, err := machine.Run(machine.Config{NProcs: 2, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			d, _ := distr.New(8, 2, distr.Block, 0)
			return writePlists(n, d, "f", Options{})
		})
	if err == nil {
		t.Fatal("write with injected fault succeeded")
	}
	if !errors.Is(err, pfs.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestOutputValidation(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		wrong := mustDist(t, 8, 3, distr.Block, 0) // 3 procs on 2-node machine
		if _, err := Open(n, wrong, "f"); err == nil {
			return fmt.Errorf("wrong-procs output accepted")
		}
		if _, err := OpenInput(n, wrong, "f"); err == nil {
			return fmt.Errorf("wrong-procs input accepted")
		}
		return nil
	})
}
