// Quickstart: the smallest complete pC++/streams program — write a
// distributed collection of variable-sized objects to a d/stream on a
// 4-node simulated Paragon, read it back, and verify it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	pcxx "pcxxstreams"
)

//go:generate go run pcxxstreams/cmd/streamgen -types Reading -dstream pcxxstreams main.go

// Reading is an element type with a variable-sized field. Its
// StreamInsert/StreamExtract pair, which makes it insertable and
// extractable, is generated into main_streams.go by the directive above.
type Reading struct {
	Station int64
	Samples []float64
}

func main() {
	const nprocs, stations = 4, 40

	cfg := pcxx.Config{NProcs: nprocs, Profile: pcxx.Paragon()}
	res, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		// A CYCLIC distribution of 40 stations over 4 nodes, as in the
		// paper's Figure 3 declarations.
		d, err := pcxx.NewDistribution(stations, nprocs, pcxx.Cyclic, 0)
		if err != nil {
			return err
		}

		// Build and fill the collection: station g holds g%7+1 samples —
		// element sizes vary across the array, the case d/streams exist for.
		g, err := pcxx.NewCollection[Reading](n, d)
		if err != nil {
			return err
		}
		g.Apply(func(global int, r *Reading) {
			r.Station = int64(global)
			for i := 0; i <= global%7; i++ {
				r.Samples = append(r.Samples, float64(global)+float64(i)/10)
			}
		})

		// Output: oStream s(&d, &a, "stations"); s << g; s.write().
		s, err := pcxx.Open(n, d, "stations")
		if err != nil {
			return err
		}
		if err := pcxx.Insert[Reading](s, g); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		// Input: iStream s(&d, &a, "stations"); s.read(); s >> g2.
		g2, err := pcxx.NewCollection[Reading](n, d)
		if err != nil {
			return err
		}
		in, err := pcxx.OpenInput(n, d, "stations")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := pcxx.Extract[Reading](in, g2); err != nil {
			return err
		}

		// Verify every element locally.
		var bad error
		g2.Apply(func(global int, r *Reading) {
			if r.Station != int64(global) || len(r.Samples) != global%7+1 {
				bad = fmt.Errorf("station %d corrupted: %+v", global, *r)
			}
		})
		if bad != nil {
			return bad
		}
		if n.Rank() == 0 {
			fmt.Printf("node 0: wrote and re-read %d variable-sized elements OK\n", stations)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip completed in %.4f virtual seconds on a %d-node simulated Paragon\n",
		res.Elapsed, nprocs)
}
