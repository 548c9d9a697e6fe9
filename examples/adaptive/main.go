// Adaptive demonstrates the paper's opening motivation: "Adaptive parallel
// applications using dynamic distributed data structures of variable-sized
// elements (e.g. distributed grids of variable density) are now emerging."
//
// A 2-D grid of cells carries a particle population that concentrates into
// a hot spot, so per-cell data sizes vary by two orders of magnitude. The
// application periodically *re-balances* its distribution — switching from
// a (BLOCK, BLOCK) processor mesh to an explicit, load-balanced layout
// computed from the live densities — and the d/stream checkpoints written
// before and after rebalancing remain mutually readable, because every
// record carries its own distribution descriptor (including explicit owner
// tables).
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	pcxx "pcxxstreams"
)

const (
	rows, cols = 12, 12
	meshR      = 2
	meshC      = 2
	nprocs     = meshR * meshC
)

//go:generate go run pcxxstreams/cmd/streamgen -types cell -dstream pcxxstreams main.go

// cell is a variable-density grid cell: a list of particle masses. Its
// codec is generated into main_streams.go.
type cell struct {
	Row, Col int32
	Masses   []float64
}

// density returns the particle count of cell (i, j): a sharp hot spot
// inside one quadrant of the grid plus a sparse background — the worst case
// for a static (BLOCK, BLOCK) mesh.
func density(i, j int) int {
	di, dj := i-rows/4, j-cols/4
	r2 := di*di + dj*dj
	switch {
	case r2 <= 2:
		return 200
	case r2 <= 8:
		return 40
	default:
		return 2
	}
}

func fill(g2 *pcxx.Grid2D, c *pcxx.Collection[cell]) {
	c.Apply(func(g int, e *cell) {
		i, j := g2.Coords(g)
		e.Row, e.Col = int32(i), int32(j)
		n := density(i, j)
		e.Masses = make([]float64, n)
		for k := range e.Masses {
			e.Masses[k] = float64(g) + float64(k)/1000
		}
	})
}

func localBytes(c *pcxx.Collection[cell]) int {
	total := 0
	c.Apply(func(_ int, e *cell) { total += 8 + 4 + 8*len(e.Masses) })
	return total
}

func main() {
	fs := pcxx.NewMemFS(pcxx.Challenge())

	// Phase 1: naive (BLOCK, BLOCK) mesh — the hot spot lands on one node.
	var naiveMax, naiveMin float64
	cfg := pcxx.Config{NProcs: nprocs, Profile: pcxx.Challenge(), FS: fs}
	if _, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		g2, err := pcxx.NewGrid2D(rows, cols, meshR, meshC, pcxx.Block, pcxx.Block, 0, 0)
		if err != nil {
			return err
		}
		c, err := pcxx.NewCollection[cell](n, g2.Dist())
		if err != nil {
			return err
		}
		fill(g2, c)
		mine := float64(localBytes(c))
		max, err := n.Comm().Allreduce(mine, 1 /* max */)
		if err != nil {
			return err
		}
		min, err := n.Comm().Allreduce(mine, 2 /* min */)
		if err != nil {
			return err
		}
		if n.Rank() == 0 {
			naiveMax, naiveMin = max, min
		}
		// Checkpoint under the naive layout.
		s, err := pcxx.Open(n, g2.Dist(), "grid.ck")
		if err != nil {
			return err
		}
		if err := pcxx.Insert[cell](s, c); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		return s.Close()
	}); err != nil {
		log.Fatal("phase 1:", err)
	}
	fmt.Printf("(BLOCK,BLOCK) mesh: per-node payload %0.f..%0.f bytes (imbalance %.1fx)\n",
		naiveMin, naiveMax, naiveMax/naiveMin)

	// Phase 2: restart from the checkpoint under a density-balanced
	// explicit layout, verify the data, and write a rebalanced checkpoint.
	weights := make([]float64, rows*cols)
	for g := range weights {
		weights[g] = float64(8 + 4 + 8*density(g/cols, g%cols))
	}
	var balMax, balMin float64
	if _, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		bd, err := pcxx.NewBalancedDistribution(weights, nprocs)
		if err != nil {
			return err
		}
		c, err := pcxx.NewCollection[cell](n, bd)
		if err != nil {
			return err
		}
		in, err := pcxx.OpenInput(n, bd, "grid.ck")
		if err != nil {
			return err
		}
		if err := in.Read(); err != nil { // redistributes grid → balanced
			return err
		}
		if err := pcxx.Extract[cell](in, c); err != nil {
			return err
		}
		if err := in.Close(); err != nil {
			return err
		}
		// Verify content against the generator.
		var bad error
		c.Apply(func(g int, e *cell) {
			i, j := g/cols, g%cols
			if int(e.Row) != i || int(e.Col) != j || len(e.Masses) != density(i, j) {
				bad = fmt.Errorf("cell (%d,%d) corrupted after rebalance", i, j)
			}
		})
		if bad != nil {
			return bad
		}
		mine := float64(localBytes(c))
		max, err := n.Comm().Allreduce(mine, 1)
		if err != nil {
			return err
		}
		min, err := n.Comm().Allreduce(mine, 2)
		if err != nil {
			return err
		}
		if n.Rank() == 0 {
			balMax, balMin = max, min
		}
		// Checkpoint under the balanced layout: the explicit owner table
		// rides inside the record.
		s, err := pcxx.Open(n, bd, "grid-balanced.ck")
		if err != nil {
			return err
		}
		if err := pcxx.Insert[cell](s, c); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		return s.Close()
	}); err != nil {
		log.Fatal("phase 2:", err)
	}
	fmt.Printf("density-balanced:   per-node payload %0.f..%0.f bytes (imbalance %.1fx)\n",
		balMin, balMax, balMax/balMin)
	if balMax/balMin >= naiveMax/naiveMin || balMax/balMin > 2.0 {
		log.Fatalf("rebalancing did not materially improve the byte balance (%.1fx → %.1fx)",
			naiveMax/naiveMin, balMax/balMin)
	}

	// Phase 3: a 1-node analysis tool reads the balanced checkpoint — the
	// explicit owner table in the file is all it needs.
	if _, err := pcxx.Run(pcxx.Config{NProcs: 1, Profile: pcxx.Challenge(), FS: fs},
		func(n *pcxx.Node) error {
			d, err := pcxx.NewDistribution(rows*cols, 1, pcxx.Block, 0)
			if err != nil {
				return err
			}
			c, err := pcxx.NewCollection[cell](n, d)
			if err != nil {
				return err
			}
			in, err := pcxx.OpenInput(n, d, "grid-balanced.ck")
			if err != nil {
				return err
			}
			defer in.Close()
			if err := in.Read(); err != nil {
				return err
			}
			if err := pcxx.Extract[cell](in, c); err != nil {
				return err
			}
			particles := 0
			c.Apply(func(_ int, e *cell) { particles += len(e.Masses) })
			fmt.Printf("analysis tool (1 node) read the balanced checkpoint: %d cells, %d particles\n",
				c.GlobalLen(), particles)
			return nil
		}); err != nil {
		log.Fatal("phase 3:", err)
	}
}
