package dstream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// tagged is an element with short slices of both word types, empty ones
// among them: what the record view's word slab exists for.
type tagged struct {
	ID   int64
	Tags []int64
	W    []float64
}

func (e *tagged) StreamInsert(b *Encoder) {
	b.Int64(e.ID)
	b.Int64Slice(e.Tags)
	b.Float64Slice(e.W)
}

func (e *tagged) StreamExtract(d *Decoder) {
	e.ID = d.Int64()
	e.Tags = d.Int64Slice()
	e.W = d.Float64Slice()
}

func mkTagged(rec, g int) tagged {
	e := tagged{ID: int64(rec)<<32 | int64(g), Tags: make([]int64, (g+rec)%4), W: make([]float64, (3*g+rec)%3)}
	for i := range e.Tags {
		e.Tags[i] = e.ID*31 + int64(i)
	}
	for i := range e.W {
		e.W[i] = float64(e.ID) / float64(i+3)
	}
	return e
}

// checkTagged compares what a rank extracted with what was written, bit for
// bit.
func checkTagged(what string, got []tagged, rec int, global func(l int) int) error {
	for l := range got {
		want := mkTagged(rec, global(l))
		g := &got[l]
		ok := g.ID == want.ID && len(g.Tags) == len(want.Tags) && len(g.W) == len(want.W)
		for i := 0; ok && i < len(want.Tags); i++ {
			ok = g.Tags[i] == want.Tags[i]
		}
		for i := 0; ok && i < len(want.W); i++ {
			ok = math.Float64bits(g.W[i]) == math.Float64bits(want.W[i])
		}
		if !ok {
			return fmt.Errorf("%s: record %d local %d is %+v, want %+v", what, rec, l, *g, want)
		}
	}
	return nil
}

// checkOwned holds one record's extracted slices to the ownership contract:
// never nil, cap == len, pairwise disjoint — and probes it, appending to
// every one; the caller then checks that no element changed.
func checkOwned(elems []tagged) error {
	type region struct{ lo, hi uintptr }
	var regions []region
	for l := range elems {
		e := &elems[l]
		if e.Tags == nil || e.W == nil || cap(e.Tags) != len(e.Tags) || cap(e.W) != len(e.W) {
			return fmt.Errorf("local %d: Tags len %d cap %d nil %v, W len %d cap %d nil %v",
				l, len(e.Tags), cap(e.Tags), e.Tags == nil, len(e.W), cap(e.W), e.W == nil)
		}
		if len(e.Tags) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(e.Tags)))
			regions = append(regions, region{lo, lo + 8*uintptr(len(e.Tags))})
		}
		if len(e.W) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(e.W)))
			regions = append(regions, region{lo, lo + 8*uintptr(len(e.W))})
		}
	}
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				return fmt.Errorf("extracted slices overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
	for l := range elems {
		_ = append(elems[l].Tags, -1)
		_ = append(elems[l].W, math.NaN())
	}
	return nil
}

// TestExtractedSlicesOutliveTheRecord: slices an extractor decoded are the
// program's, not the stream's — unlike Raw bytes, which die with the record.
// What was extracted from record r is bit-identical after the Read of r+1,
// after a Skip, and after Close, on a same-layout and a redistributing
// stream, with and without read-ahead. Under -tags pooldebug every pooled
// buffer those records passed through has been poisoned by then.
func TestExtractedSlicesOutliveTheRecord(t *testing.T) {
	const nElems, wp, records = 37, 3, 4
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	wd := mustDist(t, nElems, wp, distr.Cyclic, 0)
	run(t, wp, fs, func(n *machine.Node) error {
		s, err := Open(n, wd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		local := make([]tagged, s.LocalLen())
		for rec := 0; rec < records; rec++ {
			for l := range local {
				local[l] = mkTagged(rec, wd.GlobalIndex(n.Rank(), l))
			}
			if err := s.InsertFunc(func(l int, e *Encoder) { local[l].StreamInsert(e) }); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	for _, rk := range []struct {
		name string
		d    *distr.Distribution
	}{{"same layout", wd}, {"redistributed", mustDist(t, nElems, 4, distr.Block, 0)}} {
		for _, refill := range redistRefills {
			t.Run(rk.name+"/"+refill.name, func(t *testing.T) {
				run(t, rk.d.NProcs, fs, func(n *machine.Node) error {
					s, err := OpenInput(n, rk.d, "f", refill.opts...)
					if err != nil {
						return err
					}
					defer s.Close()
					global := func(l int) int { return rk.d.GlobalIndex(n.Rank(), l) }
					extract := func(into []tagged) error {
						return s.ExtractFunc(func(l int, d *Decoder) { into[l].StreamExtract(d) })
					}
					kept, cur := make([]tagged, s.LocalLen()), make([]tagged, s.LocalLen())
					if err := s.Read(); err != nil {
						return err
					}
					if err := extract(kept); err != nil {
						return err
					}
					if err := checkOwned(kept); err != nil {
						return err
					}
					if err := checkTagged("after the append probe", kept, 0, global); err != nil {
						return err
					}
					if err := s.Read(); err != nil {
						return err
					}
					if err := extract(cur); err != nil {
						return err
					}
					if err := checkTagged("after the next Read", kept, 0, global); err != nil {
						return err
					}
					if err := s.Skip(); err != nil {
						return err
					}
					if err := checkTagged("after Skip", kept, 0, global); err != nil {
						return err
					}
					if err := s.Read(); err != nil {
						return err
					}
					if err := s.Close(); err != nil {
						return err
					}
					if err := checkTagged("after Close", kept, 0, global); err != nil {
						return err
					}
					return checkTagged("after Close", cur, 1, global)
				})
			})
		}
	}
}

// TestChannelExtractedSlicesOutliveTheRecord is the same contract on a
// channel's consumer end, whose element payloads alias credited frames.
func TestChannelExtractedSlicesOutliveTheRecord(t *testing.T) {
	const nElems, m, c, records = 37, 2, 2, 3
	chanRun(t, m+c, nil, func(n *machine.Node) error {
		wd, err := distr.New(nElems, m, distr.Block, 0)
		if err != nil {
			return err
		}
		rd, err := distr.New(nElems, c, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		if n.Rank() < m {
			s, err := OpenChannel(n, wd, rd, "own")
			if err != nil {
				return err
			}
			defer s.Close()
			local := make([]tagged, s.LocalLen())
			for rec := 0; rec < records; rec++ {
				for l := range local {
					local[l] = mkTagged(rec, wd.GlobalIndex(n.Rank(), l))
				}
				if err := s.InsertFunc(func(l int, e *Encoder) { local[l].StreamInsert(e) }); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			return s.Close()
		}
		r, err := OpenChannelInput(n, rd, wd, "own")
		if err != nil {
			return err
		}
		defer r.Close()
		global := func(l int) int { return rd.GlobalIndex(n.Rank()-m, l) }
		var got [records][]tagged
		for rec := range got {
			got[rec] = make([]tagged, r.LocalLen())
			if err := r.Read(); err != nil {
				return err
			}
			if err := r.ExtractFunc(func(l int, d *Decoder) { got[rec][l].StreamExtract(d) }); err != nil {
				return err
			}
			if err := checkOwned(got[rec]); err != nil {
				return err
			}
			for earlier := 0; earlier <= rec; earlier++ {
				if err := checkTagged(fmt.Sprintf("after record %d", rec), got[earlier], earlier, global); err != nil {
					return err
				}
			}
		}
		if err := r.Read(); !errors.Is(err, ErrEOS) {
			return fmt.Errorf("read past the last record: %v", err)
		}
		if err := r.Close(); err != nil {
			return err
		}
		for rec := range got {
			if err := checkTagged("after Close", got[rec], rec, global); err != nil {
				return err
			}
		}
		return nil
	})
}

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
