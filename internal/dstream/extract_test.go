package dstream

import (
	"math"
	"runtime"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestSmallStreamAllocatesSmallChunk: the slab sizes a chunk by what the
// record at hand can still decode to, so reading three small elements does
// not cost 64 KiB. A heap window counts every goroutine's allocations, so the
// record is read on five fresh input streams — each with a slab of its own,
// so a mis-sized chunk shows in every window — and the lowest window counts.
func TestSmallStreamAllocatesSmallChunk(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	d := mustDist(t, 3, 1, distr.Block, 0)
	run(t, 1, fs, func(n *machine.Node) error {
		s, err := Open(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.InsertFunc(func(l int, e *Encoder) { e.Int64Slice([]int64{1, 2, 3}) }); err != nil {
			return err
		}
		return s.Write()
	})
	bytes, mallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	run(t, 1, fs, func(n *machine.Node) error {
		for range 5 {
			s, err := OpenInput(n, d, "f")
			if err != nil {
				return err
			}
			if err := s.Read(); err != nil {
				s.Close()
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = s.ExtractFunc(func(l int, d *Decoder) { d.Int64Slice() })
			runtime.ReadMemStats(&after)
			s.Close()
			if err != nil {
				return err
			}
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return nil
	})
	// Three elements of 4+24 bytes: a nine-word chunk.
	if bytes > 1<<10 {
		t.Errorf("extracting three three-word slices allocated %d bytes", bytes)
	}
	if mallocs > 1 {
		t.Errorf("extracting three slices made %d allocations, want the one chunk", mallocs)
	}
}
