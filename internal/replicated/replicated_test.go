package replicated

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

func TestWriteOnceReadBroadcast(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err := machine.Run(machine.Config{NProcs: 4, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			f, err := Open(n, "params", true)
			if err != nil {
				return err
			}
			defer f.Close()
			// Every node calls Write with the same replicated data.
			if err := f.Write([]byte("alpha=1\n")); err != nil {
				return err
			}
			if err := f.Write([]byte("beta=2\n")); err != nil {
				return err
			}
			// Read it back from the top on all nodes.
			f.SeekTo(0)
			got, err := f.Read(16)
			if err != nil {
				return err
			}
			if string(got) != "alpha=1\nbeta=2\n\x00"[:16] && string(got) != "alpha=1\nbeta=2\n" {
				// 15 bytes written; 16th read fails → adjust below.
				return fmt.Errorf("unexpected read %q", got)
			}
			return nil
		})
	// Reading 16 bytes of a 15-byte file must fail on node 0 and propagate.
	if err == nil {
		t.Fatal("overlong read succeeded")
	}

	// The write side must still have produced exactly one copy.
	img, ierr := fs.Image("params")
	if ierr != nil {
		t.Fatal(ierr)
	}
	if string(img) != "alpha=1\nbeta=2\n" {
		t.Fatalf("file image %q — data duplicated or lost", img)
	}
}

func TestReadBroadcastsSameBytes(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	results := make([][]byte, 3)
	_, err := machine.Run(machine.Config{NProcs: 3, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			f, err := Open(n, "data", true)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := f.Write([]byte("0123456789")); err != nil {
				return err
			}
			f.SeekTo(2)
			got, err := f.Read(5)
			if err != nil {
				return err
			}
			results[n.Rank()] = got
			if f.Offset() != 7 {
				return fmt.Errorf("offset %d, want 7", f.Offset())
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range results {
		if !bytes.Equal(b, []byte("23456")) {
			t.Fatalf("rank %d read %q", r, b)
		}
	}
}

// TestRootFailureFailsEveryRank: node 0 alone touches storage; when its write
// or read fails, every node fails with its message and no cursor moves.
func TestRootFailureFailsEveryRank(t *testing.T) {
	const nprocs = 3
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := fs.InjectFault("doomed", 0); err != nil {
		t.Fatal(err)
	}
	var werrs, rerrs [nprocs]error
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			f, err := Open(n, "doomed", false)
			if err != nil {
				return err
			}
			defer f.Close()
			werrs[n.Rank()] = f.Write([]byte("x"))
			_, rerrs[n.Rank()] = f.Read(4)
			if f.Offset() != 0 {
				return fmt.Errorf("cursor moved to %d over failed operations", f.Offset())
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, errs := range [][nprocs]error{werrs, rerrs} {
		for r, err := range errs {
			if !strings.Contains(fmt.Sprint(err), pfs.ErrInjected.Error()) || fmt.Sprint(err) != fmt.Sprint(errs[0]) {
				t.Fatalf("rank %d: err = %v, want node 0's injected fault (%v)", r, err, errs[0])
			}
		}
	}
}
