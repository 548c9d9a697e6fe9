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
		dSmall := mustDist(t, 7, 3, distr.Cyclic, 0)
		dBig := mustDist(t, 20, 3, distr.Block, 0)

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
		dSmall := mustDist(t, 7, 3, distr.Cyclic, 0)
		dBig := mustDist(t, 20, 3, distr.Block, 0)
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

// TestFullPipelineOverTCP runs the complete write/redistribute/read cycle
// over real loopback sockets.
func TestFullPipelineOverTCP(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Paragon())
	_, err := machine.Run(machine.Config{
		NProcs: 4, Profile: vtime.Paragon(), FS: fs, Transport: machine.TransportTCP,
	}, func(n *machine.Node) error {
		wd := mustDist(t, 30, 4, distr.Cyclic, 0)
		if err := writePlists(n, wd, "tcp", Options{}); err != nil {
			return err
		}
		rd := mustDist(t, 30, 4, distr.Block, 0)
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

// TestAsyncWriteCorrectness: write-behind writes return before the disk has
// the data, and Close pays the drain. (That an async file is the synchronous
// one, byte for byte, and reads back is the interpreter's: every write's image
// is the model's, whatever the strategy or write-behind.)
func TestAsyncWriteCorrectness(t *testing.T) {
	var closedAt, writtenAt float64
	run(t, 3, pfs.NewMemFS(vtime.Paragon()), func(n *machine.Node) error {
		d := mustDist(t, 20, 3, distr.Cyclic, 0)
		c, err := collection.New[plist](n, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *plist) { *e = mkPlist(g) })
		s, err := Open(n, d, "async", WithAsync())
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
		return nil
	})
	if closedAt <= writtenAt {
		t.Fatalf("async close paid no drain time (%v → %v)", writtenAt, closedAt)
	}
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
		d := mustDist(t, 4, 2, distr.Block, 0)
		_, err = Open(n, d, "junk2", WithAppend())
		if err == nil {
			return fmt.Errorf("append to non-stream accepted")
		}
		return nil
	})
}
