package dstream

import (
	"fmt"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/grid"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestGrid2DRoundTrip writes a (BLOCK, CYCLIC)-distributed 2-D grid and
// reads it back on a 1-D BLOCK layout — distributed grids flowing through
// the same format.
func TestGrid2DRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const rows, cols = 6, 8
	run(t, 4, fs, func(n *machine.Node) error {
		g2, err := grid.New2D(rows, cols, 2, 2, distr.Block, distr.Cyclic, 0, 0)
		if err != nil {
			return err
		}
		type cell struct{ V float64 }
		c, err := collection.New[cell](n, g2.Dist())
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *cell) {
			i, j := g2.Coords(g)
			e.V = float64(i*100 + j)
		})
		s, err := Open(n, g2.Dist(), "grid")
		if err != nil {
			return err
		}
		if err := InsertField(s, c, func(e *cell) float64 { return e.V }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		rd := mustDist(t, rows*cols, 4, distr.Block, 0)
		back, err := collection.New[cell](n, rd)
		if err != nil {
			return err
		}
		in, err := OpenInput(n, rd, "grid")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := ExtractField(in, back, func(e *cell) *float64 { return &e.V }); err != nil {
			return err
		}
		var bad error
		back.Apply(func(g int, e *cell) {
			i, j := g/cols, g%cols
			if e.V != float64(i*100+j) {
				bad = fmt.Errorf("cell (%d,%d) = %v", i, j, e.V)
			}
		})
		return bad
	})
}
