// Particles reproduces Figure 3 of the paper: a distributed grid of
// ParticleList objects is written by one "program" (output phase) and read
// back by another (input phase), including the paper's two insert forms —
// the whole collection (s << g) and a single field (s << g.numberOfParticles)
// interleaved with a second aligned collection's field (g2.particleDensity),
// the interleaving feature used for visualization-tool output.
//
//	go run ./examples/particles
package main

import (
	"fmt"
	"log"

	pcxx "pcxxstreams"
)

//go:generate go run pcxxstreams/cmd/streamgen -types Position,ParticleList -dstream pcxxstreams main.go

// Position matches Figure 3's declarations.
type Position struct{ X, Y, Z float64 }

// ParticleList is Figure 3's element class: a count plus variable-sized
// mass and position arrays. Its insertion function, generated into
// main_streams.go, decomposes the insertion in terms of simpler insertions
// of its fields, exactly like the paper's declareStreamInserter(ParticleList
// &p): the mass array goes in as s << array(p.mass, p.numberOfParticles).
type ParticleList struct {
	NumberOfParticles int64
	Mass              []float64
	Position          []Position
}

// cell is the element of the aligned companion collection g2 of §4.1's
// interleaving example (particleDensity).
type cell struct{ ParticleDensity float64 }

const (
	nprocs = 4
	grid   = 12 // Figure 3 uses a 12-element grid
	file   = "wholeGridFile"
)

func main() {
	// One shared file system plays the role of the machine's disk across
	// the two programs.
	fs := pcxx.NewMemFS(pcxx.Paragon())

	if err := outputProgram(fs); err != nil {
		log.Fatal("output program:", err)
	}
	if err := inputProgram(fs); err != nil {
		log.Fatal("input program:", err)
	}
	fmt.Println("Figure 3 reproduced: grid written, interleaved fields written, everything read back intact")
}

// outputProgram is Figure 3's left-hand program.
func outputProgram(fs *pcxx.FileSystem) error {
	cfg := pcxx.Config{NProcs: nprocs, Profile: pcxx.Paragon(), FS: fs}
	_, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		// Processors P; Distribution d(12, &P, CYCLIC); Align a(...).
		d, err := pcxx.NewDistribution(grid, nprocs, pcxx.Cyclic, 0)
		if err != nil {
			return err
		}
		// DistributedParticleGrid<ParticleList> g(&d, &a).
		g, err := pcxx.NewCollection[ParticleList](n, d)
		if err != nil {
			return err
		}
		g.Apply(func(global int, p *ParticleList) {
			count := global%4 + 1
			p.NumberOfParticles = int64(count)
			for i := 0; i < count; i++ {
				p.Mass = append(p.Mass, float64(global)+0.5)
				p.Position = append(p.Position, Position{
					X: float64(global), Y: float64(i), Z: float64(global * i),
				})
			}
		})
		// A second collection aligned with g (the §4.1 example's g2).
		g2, err := pcxx.NewCollection[cell](n, d)
		if err != nil {
			return err
		}
		g2.Apply(func(global int, c *cell) { c.ParticleDensity = float64(global) / 10 })

		// oStream s(&d, &a, "wholeGridFile").
		s, err := pcxx.Open(n, d, file)
		if err != nil {
			return err
		}
		// s << g;  (record 1: the whole grid)
		if err := pcxx.Insert[ParticleList](s, g); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		// s << g.numberOfParticles; s << g2.particleDensity; s.write();
		// (record 2: two interleaved single-field inserts — related data
		// lands contiguously in the file for visualization tools)
		if err := pcxx.InsertField(s, g, func(p *ParticleList) int64 { return p.NumberOfParticles }); err != nil {
			return err
		}
		if err := pcxx.InsertField(s, g2, func(c *cell) float64 { return c.ParticleDensity }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		return s.Close() // close runs in the destructor in pC++
	})
	return err
}

// inputProgram is Figure 3's right-hand program.
func inputProgram(fs *pcxx.FileSystem) error {
	cfg := pcxx.Config{NProcs: nprocs, Profile: pcxx.Paragon(), FS: fs}
	_, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		d, err := pcxx.NewDistribution(grid, nprocs, pcxx.Cyclic, 0)
		if err != nil {
			return err
		}
		g, err := pcxx.NewCollection[ParticleList](n, d)
		if err != nil {
			return err
		}
		g2, err := pcxx.NewCollection[cell](n, d)
		if err != nil {
			return err
		}

		// iStream s(&d, &a, "wholeGridFile"); s.read(); s >> g.
		s, err := pcxx.OpenInput(n, d, file)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err != nil {
			return err
		}
		if err := pcxx.Extract[ParticleList](s, g); err != nil {
			return err
		}
		// Second record: s >> g.numberOfParticles; s >> g2.particleDensity.
		if err := s.Read(); err != nil {
			return err
		}
		if err := pcxx.ExtractField(s, g, func(p *ParticleList) *int64 { return &p.NumberOfParticles }); err != nil {
			return err
		}
		if err := pcxx.ExtractField(s, g2, func(c *cell) *float64 { return &c.ParticleDensity }); err != nil {
			return err
		}

		// Verify.
		var bad error
		g.Apply(func(global int, p *ParticleList) {
			want := int64(global%4 + 1)
			if p.NumberOfParticles != want || len(p.Mass) != int(want) || len(p.Position) != int(want) {
				bad = fmt.Errorf("grid[%d] corrupted: %+v", global, *p)
				return
			}
			if p.Position[0].X != float64(global) {
				bad = fmt.Errorf("grid[%d] position corrupted", global)
			}
		})
		if bad != nil {
			return bad
		}
		g2.Apply(func(global int, c *cell) {
			if c.ParticleDensity != float64(global)/10 {
				bad = fmt.Errorf("g2[%d] density corrupted: %v", global, c.ParticleDensity)
			}
		})
		if bad == nil && n.Rank() == 0 {
			total := 0
			g.Apply(func(_ int, p *ParticleList) { total += int(p.NumberOfParticles) })
			fmt.Printf("node 0 re-read its share of the grid (%d particles locally)\n", total)
		}
		return bad
	})
	return err
}
