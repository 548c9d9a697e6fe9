package scf_test

import (
	"errors"
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// TestRecordsRoundTrip: what Write wrote, Read verifies — across a changed
// layout, with the per-record hook called once per record in order — and a
// reader expecting another generator gets ErrMismatch naming the first
// record, not a pass.
func TestRecordsRoundTrip(t *testing.T) {
	const nprocs, segments = 3, 7
	written := scf.Records{N: 3, Particles: 5, Base: 40}
	roundTrip := func(read scf.Records, hook func(rec int) error) error {
		_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Paragon(), FS: pfs.NewMemFS(vtime.Paragon())},
			func(n *machine.Node) error {
				dw, _ := distr.New(segments, nprocs, distr.Cyclic, 0)
				out, err := dstream.Open(n, dw, "recs")
				if err != nil {
					return err
				}
				src, err := collection.New[scf.Segment](n, dw)
				if err != nil {
					return err
				}
				if err := written.Write(out, src); err != nil {
					return err
				}
				if err := out.Close(); err != nil {
					return err
				}
				dr, _ := distr.New(segments, nprocs, distr.Block, 0)
				in, err := dstream.OpenInput(n, dr, "recs")
				if err != nil {
					return err
				}
				defer in.Close()
				back, err := collection.New[scf.Segment](n, dr)
				if err != nil {
					return err
				}
				if n.Rank() != 0 {
					return read.Read(in, back, nil)
				}
				return read.Read(in, back, hook)
			})
		return err
	}

	var seen []int
	if err := roundTrip(written, func(rec int) error { seen = append(seen, rec); return nil }); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("hook saw records %v, want [0 1 2]", seen)
	}

	other := written
	other.Base++
	err := roundTrip(other, nil)
	if !errors.Is(err, scf.ErrMismatch) || !strings.Contains(err.Error(), "record 0 global") {
		t.Errorf("reader with another generator: err = %v, want ErrMismatch at record 0", err)
	}

	stop := errors.New("stop")
	if err := roundTrip(written, func(int) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("hook error not returned: %v", err)
	}
}
