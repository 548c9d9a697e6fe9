package dstream

import (
	"fmt"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestMultipleStreamsOneFile reproduces the paper's §4.1 note: "Multiple
// d/streams may be set up and connected to the same file if collections
// with differing distributions and alignments are to be output." Two output
// streams with different distributions append alternating records to one
// file; on input, two streams over the same file each read their records
// and Skip the other's.
func TestMultipleStreamsOneFile(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const file = "shared"
	type small struct{ V int64 }
	type big struct{ W float64 }

	run(t, 3, fs, func(n *machine.Node) error {
		dSmall := mustLocal(t, 7, 3, distr.Cyclic, 0)
		dBig := mustLocal(t, 20, 3, distr.Block, 0)

		cs, err := collection.New[small](n, dSmall)
		if err != nil {
			return err
		}
		cs.Apply(func(g int, e *small) { e.V = int64(g) })
		cb, err := collection.New[big](n, dBig)
		if err != nil {
			return err
		}
		cb.Apply(func(g int, e *big) { e.W = float64(g) / 4 })

		sSmall, err := Open(n, dSmall, file)
		if err != nil {
			return err
		}
		sBig, err := Open(n, dBig, file)
		if err != nil {
			return err
		}
		// Alternate records: small, big, small.
		if err := InsertField(sSmall, cs, func(e *small) int64 { return e.V }); err != nil {
			return err
		}
		if err := sSmall.Write(); err != nil {
			return err
		}
		if err := InsertField(sBig, cb, func(e *big) float64 { return e.W }); err != nil {
			return err
		}
		if err := sBig.Write(); err != nil {
			return err
		}
		if err := InsertField(sSmall, cs, func(e *small) int64 { return e.V * 10 }); err != nil {
			return err
		}
		if err := sSmall.Write(); err != nil {
			return err
		}
		if err := sSmall.Close(); err != nil {
			return err
		}
		return sBig.Close()
	})

	run(t, 3, fs, func(n *machine.Node) error {
		dSmall := mustLocal(t, 7, 3, distr.Cyclic, 0)
		dBig := mustLocal(t, 20, 3, distr.Block, 0)
		cs, err := collection.New[small](n, dSmall)
		if err != nil {
			return err
		}
		cb, err := collection.New[big](n, dBig)
		if err != nil {
			return err
		}

		inSmall, err := OpenInput(n, dSmall, file)
		if err != nil {
			return err
		}
		defer inSmall.Close()
		inBig, err := OpenInput(n, dBig, file)
		if err != nil {
			return err
		}
		defer inBig.Close()

		// Stream-select by peeking at the element count.
		ne, err := inSmall.NextElems()
		if err != nil || ne != 7 {
			return fmt.Errorf("peek 1: %d, %v", ne, err)
		}
		if err := inSmall.Read(); err != nil {
			return err
		}
		if err := ExtractField(inSmall, cs, func(e *small) *int64 { return &e.V }); err != nil {
			return err
		}
		var bad error
		cs.Apply(func(g int, e *small) {
			if e.V != int64(g) {
				bad = fmt.Errorf("record 1 global %d = %d", g, e.V)
			}
		})
		if bad != nil {
			return bad
		}

		// The big stream skips the small record it already passed? No: each
		// stream has its own cursor from the top, so inBig must skip rec 1.
		if err := inBig.Skip(); err != nil {
			return err
		}
		if err := inBig.Read(); err != nil {
			return err
		}
		if err := ExtractField(inBig, cb, func(e *big) *float64 { return &e.W }); err != nil {
			return err
		}
		cb.Apply(func(g int, e *big) {
			if e.W != float64(g)/4 {
				bad = fmt.Errorf("record 2 global %d = %v", g, e.W)
			}
		})
		if bad != nil {
			return bad
		}

		// Small stream skips the big record and reads its second one.
		if err := inSmall.Skip(); err != nil {
			return err
		}
		if err := inSmall.Read(); err != nil {
			return err
		}
		if err := ExtractField(inSmall, cs, func(e *small) *int64 { return &e.V }); err != nil {
			return err
		}
		cs.Apply(func(g int, e *small) {
			if e.V != int64(g*10) {
				bad = fmt.Errorf("record 3 global %d = %d", g, e.V)
			}
		})
		if bad != nil {
			return bad
		}
		if inSmall.More() {
			return fmt.Errorf("small stream has unexpected further records")
		}
		return nil
	})
}

func TestSkipPastEndRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 1, fs, func(n *machine.Node) error {
		d := mustLocal(t, 4, 1, distr.Block, 0)
		if err := writePlists(n, d, "f", Options{}); err != nil {
			return err
		}
		s, err := OpenInput(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Skip(); err != nil {
			return err
		}
		if err := s.Skip(); err == nil {
			return fmt.Errorf("skip past end accepted")
		}
		return nil
	})
}

func TestSkipInvalidatesPendingExtracts(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 1, fs, func(n *machine.Node) error {
		d := mustLocal(t, 4, 1, distr.Block, 0)
		// Two records.
		if err := func() error {
			s, err := Open(n, d, "f")
			if err != nil {
				return err
			}
			defer s.Close()
			for i := 0; i < 2; i++ {
				if err := s.InsertFunc(func(l int, e *Encoder) { e.Int64(int64(i)) }); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			return nil
		}(); err != nil {
			return err
		}
		s, err := OpenInput(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.Read(); err != nil {
			return err
		}
		if err := s.Skip(); err != nil { // abandons record 2... wait, record 1's data
			return err
		}
		// After Skip, extracting is illegal until the next Read.
		if err := s.ExtractFunc(func(int, *Decoder) {}); err == nil {
			return fmt.Errorf("extract after skip accepted")
		}
		return nil
	})
}

// TestAlignedCollectionRoundTrip drives a non-identity alignment through
// the whole pipeline: the alignment is stored in the record header and
// honoured on the read side.
func TestAlignedCollectionRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const n, templateN = 10, 40
	run(t, 3, fs, func(nd *machine.Node) error {
		// Elements map to template cells 3 + 2i.
		al := distr.Alignment{Offset: 3, Stride: 2}
		wd, err := distr.NewAligned(n, templateN, 3, distr.Cyclic, 0, al)
		if err != nil {
			return err
		}
		c, err := collection.New[plist](nd, wd)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
		s, err := Open(nd, wd, "aligned")
		if err != nil {
			return err
		}
		if err := Insert[plist](s, c); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		// Read with an identity-aligned BLOCK distribution: both the
		// alignment and the mode differ, so the sorted read must route.
		rd, err := distr.New(n, 3, distr.Block, 0)
		if err != nil {
			return err
		}
		back, err := collection.New[plist](nd, rd)
		if err != nil {
			return err
		}
		in, err := OpenInput(nd, rd, "aligned")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := Extract[plist](in, back); err != nil {
			return err
		}
		var bad error
		back.Apply(func(g int, e *plist) {
			if !plistEqual(*e, mkPlist(g)) {
				bad = fmt.Errorf("global %d mismatch under alignment", g)
			}
		})
		return bad
	})
}

// TestFullPipelineOverTCP runs the complete write/redistribute/read cycle
// over real loopback sockets.
func TestFullPipelineOverTCP(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Paragon())
	_, err := machine.Run(machine.Config{
		NProcs: 4, Profile: vtime.Paragon(), FS: fs, Transport: machine.TransportTCP,
	}, func(n *machine.Node) error {
		wd := mustLocal(t, 30, 4, distr.Cyclic, 0)
		if err := writePlists(n, wd, "tcp", Options{}); err != nil {
			return err
		}
		rd := mustLocal(t, 30, 4, distr.Block, 0)
		c, err := readPlists(n, rd, "tcp", true)
		if err != nil {
			return err
		}
		var bad error
		c.Apply(func(g int, e *plist) {
			if !plistEqual(*e, mkPlist(g)) {
				bad = fmt.Errorf("global %d mismatch over TCP", g)
			}
		})
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncWriteCorrectness: write-behind streams produce byte-identical
// files and fully readable data; only the virtual timing differs.
func TestAsyncWriteCorrectness(t *testing.T) {
	images := map[bool][]byte{}
	for _, async := range []bool{false, true} {
		fs := pfs.NewMemFS(vtime.Paragon())
		var closedAt, writtenAt float64
		run(t, 3, fs, func(n *machine.Node) error {
			d := mustLocal(t, 20, 3, distr.Cyclic, 0)
			c, err := collection.New[plist](n, d)
			if err != nil {
				return err
			}
			c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
			s, err := Open(n, d, "async", WithOptions(Options{Async: async}))
			if err != nil {
				return err
			}
			for rec := 0; rec < 3; rec++ {
				if err := Insert[plist](s, c); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			if n.Rank() == 0 {
				writtenAt = n.Clock().Now()
			}
			if err := s.Close(); err != nil {
				return err
			}
			if n.Rank() == 0 {
				closedAt = n.Clock().Now()
			}
			// Read everything back.
			c2, err := readPlists(n, d, "async", true)
			if err != nil {
				return err
			}
			var bad error
			c2.Apply(func(g int, e *plist) {
				if !plistEqual(*e, mkPlist(g)) {
					bad = fmt.Errorf("async=%v: global %d mismatch", async, g)
				}
			})
			return bad
		})
		img, err := fs.Image("async")
		if err != nil {
			t.Fatal(err)
		}
		images[async] = img
		if async {
			// In async mode the writes return early; Close pays the I/O.
			if closedAt <= writtenAt {
				t.Fatalf("async close paid no drain time (%v → %v)", writtenAt, closedAt)
			}
		}
	}
	if string(images[false]) != string(images[true]) {
		t.Fatal("async and sync modes produced different file images")
	}
}

// TestEmptyCollectionRoundTrip: a collection with zero elements writes a
// header-only record that reads back cleanly.
func TestEmptyCollectionRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 3, fs, func(n *machine.Node) error {
		d := mustLocal(t, 0, 3, distr.Block, 0)
		s, err := Open(n, d, "empty")
		if err != nil {
			return err
		}
		if err := s.InsertFunc(func(int, *Encoder) {}); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		in, err := OpenInput(n, d, "empty")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if in.Arrays() != 1 || in.LocalLen() != 0 {
			return fmt.Errorf("Arrays=%d LocalLen=%d", in.Arrays(), in.LocalLen())
		}
		if err := in.ExtractFunc(func(int, *Decoder) {}); err != nil {
			return err
		}
		if in.More() {
			return fmt.Errorf("trailing records in empty stream")
		}
		return nil
	})
}

// TestAppendMode accumulates records across separate "runs" in one file —
// the §2 save-between-runs pattern — and reads them all back in order.
func TestAppendMode(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	writeRun := func(runIdx int, opts Options) {
		run(t, 2, fs, func(n *machine.Node) error {
			d := mustLocal(t, 6, 2, distr.Cyclic, 0)
			s, err := Open(n, d, "history", WithOptions(opts))
			if err != nil {
				return err
			}
			defer s.Close()
			if err := s.InsertFunc(func(l int, e *Encoder) {
				e.Int64(int64(runIdx*100 + d.GlobalIndex(n.Rank(), l)))
			}); err != nil {
				return err
			}
			return s.Write()
		})
	}
	writeRun(0, Options{})
	writeRun(1, Options{Append: true})
	writeRun(2, Options{Append: true})

	run(t, 2, fs, func(n *machine.Node) error {
		d := mustLocal(t, 6, 2, distr.Cyclic, 0)
		in, err := OpenInput(n, d, "history")
		if err != nil {
			return err
		}
		defer in.Close()
		for runIdx := 0; runIdx < 3; runIdx++ {
			if err := in.Read(); err != nil {
				return err
			}
			var bad error
			if err := in.ExtractFunc(func(l int, dec *Decoder) {
				want := int64(runIdx*100 + d.GlobalIndex(n.Rank(), l))
				if got := dec.Int64(); got != want && bad == nil {
					bad = fmt.Errorf("run %d: got %d want %d", runIdx, got, want)
				}
			}); err != nil {
				return err
			}
			if bad != nil {
				return bad
			}
		}
		if in.More() {
			return fmt.Errorf("extra records")
		}
		return nil
	})
}

// TestAppendToNonStreamRejected: append mode validates the file header.
func TestAppendToNonStreamRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	run(t, 2, fs, func(n *machine.Node) error {
		f, err := n.Open("junk2", true)
		if err != nil {
			return err
		}
		if _, err := f.ParallelAppend([]byte("garbage bytes here....")); err != nil {
			return err
		}
		f.Close()
		d := mustLocal(t, 4, 2, distr.Block, 0)
		_, err = Open(n, d, "junk2", WithAppend())
		if err == nil {
			return fmt.Errorf("append to non-stream accepted")
		}
		return nil
	})
}
