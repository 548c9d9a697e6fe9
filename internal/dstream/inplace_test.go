package dstream

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// refilled is tagged with the paper's extractor, `s >> array(p.tags, n)`:
// its slices are refilled in the element's own memory.
type refilled tagged

func (e *refilled) StreamInsert(b *Encoder) { (*tagged)(e).StreamInsert(b) }

func (e *refilled) StreamExtract(d *Decoder) {
	e.ID = d.Int64()
	e.Tags = d.AppendInt64Slice(e.Tags[:0])
	e.W = d.AppendFloat64Slice(e.W[:0])
}

// mkSteady is element g of record rec with the slice lengths of element g in
// every record, empty ones among them, so every record after the first fits
// in what the first one's extraction left.
func mkSteady(rec, g int) refilled {
	e := refilled{ID: int64(rec)<<32 | int64(g), Tags: make([]int64, g%4), W: make([]float64, (g/4)%3)}
	for i := range e.Tags {
		e.Tags[i] = e.ID*31 + int64(i)
	}
	for i := range e.W {
		e.W[i] = float64(e.ID) / float64(i+3)
	}
	return e
}

// refillState is what an element's refill must keep: where each slice's
// words live, and the bytes of the view's slab taken as an opaque value —
// the same, pointers included, from record to record exactly when nothing
// was carved from it.
type refillState struct {
	data []unsafe.Pointer
	slab string
}

func stateOf(elems []refilled, v *recordView) refillState {
	st := refillState{slab: string(unsafe.Slice((*byte)(unsafe.Pointer(&v.slab)), unsafe.Sizeof(v.slab)))}
	for l := range elems {
		st.data = append(st.data, unsafe.Pointer(unsafe.SliceData(elems[l].Tags)), unsafe.Pointer(unsafe.SliceData(elems[l].W)))
	}
	return st
}

// readSteady extracts records 0..records-1 into one set of elements and
// holds every record after the first to the refill: the values written, in
// the memory the first record's extraction left, with no slab chunk carved.
func readSteady(v *recordView, records int, global func(l int) int, read func() error, extract func([]refilled) error, local []refilled) error {
	var first refillState
	for rec := 0; rec < records; rec++ {
		if err := read(); err != nil {
			return err
		}
		if err := extract(local); err != nil {
			return err
		}
		for l := range local {
			if want := mkSteady(rec, global(l)); !reflect.DeepEqual(local[l], want) {
				return fmt.Errorf("record %d local %d is %+v, want %+v", rec, l, local[l], want)
			}
		}
		st := stateOf(local, v)
		if rec == 0 {
			first = st
			continue
		}
		if !reflect.DeepEqual(st.data, first.data) {
			return fmt.Errorf("record %d: an extracted slice moved", rec)
		}
		if st.slab != first.slab {
			return fmt.Errorf("record %d: the slab carved", rec)
		}
	}
	return nil
}

// TestExtractRefillsElementSlices: an extractor in the append form refills
// the element it is given. After the first record, whose extraction carves,
// every record lands in the slices the element already holds — every data
// pointer kept, no slab chunk carved — on a same-layout and a redistributing
// stream, with and without read-ahead, through ExtractInt64Slice and
// ExtractFloat64Slice, and on a channel's consumer end.
// (TestExtractedSlicesOutliveTheRecord holds the plain form to its contract.)
func TestExtractRefillsElementSlices(t *testing.T) {
	const nElems, wp, records = 37, 3, 3
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	wd := mustDist(t, nElems, wp, distr.Cyclic, 0)
	run(t, wp, fs, func(n *machine.Node) error {
		s, err := Open(n, wd, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		// "fields" holds the same records one field an insert, for the
		// field helpers.
		fields, err := Open(n, wd, "fields")
		if err != nil {
			return err
		}
		defer fields.Close()
		c, err := collection.New[refilled](n, wd)
		if err != nil {
			return err
		}
		for rec := 0; rec < records; rec++ {
			c.Apply(func(g int, e *refilled) { *e = mkSteady(rec, g) })
			if err := Insert[refilled](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			if err := InsertField(fields, c, func(e *refilled) int64 { return e.ID }); err != nil {
				return err
			}
			if err := InsertInt64Slice(fields, c, func(e *refilled) []int64 { return e.Tags }); err != nil {
				return err
			}
			if err := InsertFloat64Slice(fields, c, func(e *refilled) []float64 { return e.W }); err != nil {
				return err
			}
			if err := fields.Write(); err != nil {
				return err
			}
		}
		if err := fields.Close(); err != nil {
			return err
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
					c, err := collection.New[refilled](n, rk.d)
					if err != nil {
						return err
					}
					err = readSteady(&s.recordView, records, func(l int) int { return rk.d.GlobalIndex(n.Rank(), l) }, s.Read,
						func([]refilled) error { return Extract[refilled](s, c) }, c.Local())
					if err != nil {
						return err
					}
					return s.Close()
				})
			})
		}
		// ExtractInt64Slice and ExtractFloat64Slice refill the field they
		// are pointed at.
		t.Run(rk.name+"/field helpers", func(t *testing.T) {
			run(t, rk.d.NProcs, fs, func(n *machine.Node) error {
				s, err := OpenInput(n, rk.d, "fields")
				if err != nil {
					return err
				}
				defer s.Close()
				c, err := collection.New[refilled](n, rk.d)
				if err != nil {
					return err
				}
				err = readSteady(&s.recordView, records, func(l int) int { return rk.d.GlobalIndex(n.Rank(), l) }, s.Read,
					func([]refilled) error {
						if err := ExtractField(s, c, func(e *refilled) *int64 { return &e.ID }); err != nil {
							return err
						}
						if err := ExtractInt64Slice(s, c, func(e *refilled) *[]int64 { return &e.Tags }); err != nil {
							return err
						}
						return ExtractFloat64Slice(s, c, func(e *refilled) *[]float64 { return &e.W })
					}, c.Local())
				if err != nil {
					return err
				}
				return s.Close()
			})
		})
	}
	t.Run("channel", func(t *testing.T) {
		const m, c = 2, 2
		chanRun(t, m+c, nil, func(n *machine.Node) error {
			wd, rd := mustDist(t, nElems, m, distr.Block, 0), mustDist(t, nElems, c, distr.Cyclic, 0)
			if n.Rank() < m {
				s, err := OpenChannel(n, wd, rd, "refill")
				if err != nil {
					return err
				}
				defer s.Close()
				local := make([]refilled, s.LocalLen())
				for rec := 0; rec < records; rec++ {
					for l := range local {
						local[l] = mkSteady(rec, wd.GlobalIndex(n.Rank(), l))
					}
					if err := InsertElems[refilled](s, local); err != nil {
						return err
					}
					if err := s.Write(); err != nil {
						return err
					}
				}
				return s.Close()
			}
			r, err := OpenChannelInput(n, rd, wd, "refill")
			if err != nil {
				return err
			}
			defer r.Close()
			err = readSteady(&r.recordView, records, func(l int) int { return rd.GlobalIndex(n.Rank()-m, l) }, r.Read,
				func(local []refilled) error { return ExtractElems[refilled](r, local) }, make([]refilled, r.LocalLen()))
			if err != nil {
				return err
			}
			return r.Close()
		})
	})
}

// TestRefillLeavesTheCarveItsShare: a record whose first elements refill in
// place and whose last ones outgrow their slices carves a chunk no larger
// than those last ones need — the in-place words come off the slab's budget
// too — and a record that fits entirely allocates nothing. Measured as
// TestSmallStreamAllocatesSmallChunk is: the lowest of five heap windows,
// each on a fresh input stream.
func TestRefillLeavesTheCarveItsShare(t *testing.T) {
	for _, tc := range []struct {
		name string
		// grow is how many words elements 2 and 3 hold in record 1; every
		// other slice holds three.
		grow              int
		bytes, allocation uint64
	}{
		{"all fit", 3, 0, 0},
		// The last two elements' ten words; the whole record is sixteen.
		{"last two grow", 5, 10 * 8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := pfs.NewMemFS(vtime.Challenge())
			d := mustDist(t, 4, 1, distr.Block, 0)
			words := func(rec, l int) int {
				if rec == 1 && l >= 2 {
					return tc.grow
				}
				return 3
			}
			run(t, 1, fs, func(n *machine.Node) error {
				s, err := Open(n, d, "f")
				if err != nil {
					return err
				}
				defer s.Close()
				for rec := range 2 {
					if err := s.InsertFunc(func(l int, e *Encoder) { e.Int64Slice(make([]int64, words(rec, l))) }); err != nil {
						return err
					}
					if err := s.Write(); err != nil {
						return err
					}
				}
				return s.Close()
			})
			bytes, mallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
			run(t, 1, fs, func(n *machine.Node) error {
				for range 5 {
					s, err := OpenInput(n, d, "f")
					if err != nil {
						return err
					}
					local := make([][]int64, 4)
					refill := func(l int, d *Decoder) { local[l] = d.AppendInt64Slice(local[l][:0]) }
					if err = s.Read(); err == nil {
						err = s.ExtractFunc(refill)
					}
					if err == nil {
						err = s.Read()
					}
					if err != nil {
						s.Close()
						return err
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err = s.ExtractFunc(refill)
					runtime.ReadMemStats(&after)
					s.Close()
					if err != nil {
						return err
					}
					for l := range local {
						if len(local[l]) != words(1, l) {
							return fmt.Errorf("local %d holds %d words, want %d", l, len(local[l]), words(1, l))
						}
					}
					bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
					mallocs = min(mallocs, after.Mallocs-before.Mallocs)
				}
				return nil
			})
			if bytes > tc.bytes {
				t.Errorf("record 1 allocated %d bytes, want at most %d", bytes, tc.bytes)
			}
			if mallocs > tc.allocation {
				t.Errorf("record 1 made %d allocations, want at most %d", mallocs, tc.allocation)
			}
		})
	}
}
