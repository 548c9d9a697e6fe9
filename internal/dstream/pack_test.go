package dstream

import (
	"fmt"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// BenchmarkPack times assembler.pack, the element-major interleave of a
// group of several inserts into one buffer, beside the Write it is a part
// of: groups of 2 and 4 inserts of Segment-sized elements (an Int64 and
// seven 100-value Float64Slices, scf.Segment's 5 636 bytes) and of 16-byte
// elements, on one rank over a MemFS. The inserts are outside the timer. A
// pack row is pack alone; a write row is the whole Write of the same group,
// pack included. Both report ns/B over the group's bytes, so pack's share of
// a multi-insert Write is the ratio of the two rows.
func BenchmarkPack(b *testing.B) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	elems := []struct {
		name string
		n    int
		fill func(l int, e *Encoder)
	}{
		{"segments", 64, func(l int, e *Encoder) {
			e.Int64(int64(l))
			for range 7 {
				e.Float64Slice(vals)
			}
		}},
		{"small", 16384, func(l int, e *Encoder) {
			e.Int64(int64(l))
			e.Float64(float64(l))
		}},
	}
	for _, el := range elems {
		for _, group := range []int{2, 4} {
			for _, row := range []string{"pack", "write"} {
				b.Run(fmt.Sprintf("%s/inserts=%d/%s", el.name, group, row), func(b *testing.B) {
					benchPack(b, el.n, group, row == "write", el.fill)
				})
			}
		}
	}
}

func benchPack(b *testing.B, n, group int, write bool, fill func(int, *Encoder)) {
	d, err := distr.New(n, 1, distr.Block, 0)
	if err != nil {
		b.Fatal(err)
	}
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err = machine.Run(machine.Config{NProcs: 1, Profile: vtime.Challenge(), FS: fs}, func(node *machine.Node) error {
		var s *OStream
		var bytes int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A fresh file every 16 records keeps the image small.
			if i%16 == 0 {
				if s != nil {
					if err := s.Close(); err != nil {
						return err
					}
				}
				if s, err = Open(node, d, "pack", WithStrategy(StrategyParallel)); err != nil {
					return err
				}
			}
			for range group {
				if err := s.InsertFunc(fill); err != nil {
					return err
				}
			}
			if bytes == 0 {
				bytes = s.bytes
				b.SetBytes(bytes)
			}
			b.StartTimer()
			if write {
				if err := s.Write(); err != nil {
					return err
				}
				continue
			}
			data, sourced := s.pack()
			s.putArena(data, sourced)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bytes), "ns/B")
		if s == nil {
			return nil
		}
		return s.Close()
	})
	if err != nil {
		b.Fatal(err)
	}
}
