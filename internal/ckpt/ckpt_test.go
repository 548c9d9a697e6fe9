package ckpt

import (
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

func runOn(t *testing.T, fs *pfs.FileSystem, nprocs int, body func(*machine.Node) error) error {
	t.Helper()
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs}, body)
	return err
}

func fillSeg(n *machine.Node, d *distr.Distribution, salt int) (*collection.Collection[scf.Segment], error) {
	c, err := collection.New[scf.Segment](n, d)
	if err != nil {
		return nil, err
	}
	c.Apply(func(g int, s *scf.Segment) { s.Fill(g+salt*1000, 5) })
	return c, nil
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 3, func(n *machine.Node) error {
		d, _ := distr.New(12, 3, distr.Cyclic, 0)
		c, err := fillSeg(n, d, 7)
		if err != nil {
			return err
		}
		m, err := New(n, "ck", 2)
		if err != nil {
			return err
		}
		return SaveCollection[scf.Segment](m, 42, c)
	}); err != nil {
		t.Fatal(err)
	}
	// Restore on a different machine shape.
	if err := runOn(t, fs, 5, func(n *machine.Node) error {
		d, _ := distr.New(12, 5, distr.Block, 0)
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		epoch, err := RestoreCollection[scf.Segment](n, "ck", 2, c)
		if err != nil {
			return err
		}
		if epoch != 42 {
			return fmt.Errorf("epoch = %d, want 42", epoch)
		}
		var bad error
		c.Apply(func(g int, s *scf.Segment) {
			var want scf.Segment
			want.Fill(g+7000, 5)
			if !s.Equal(&want) {
				bad = fmt.Errorf("global %d mismatch", g)
			}
		})
		return bad
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRotationKeepsNewest(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 2, func(n *machine.Node) error {
		d, _ := distr.New(6, 2, distr.Cyclic, 0)
		m, err := New(n, "rot", 2)
		if err != nil {
			return err
		}
		for epoch := uint64(1); epoch <= 5; epoch++ {
			c, err := fillSeg(n, d, int(epoch))
			if err != nil {
				return err
			}
			if err := SaveCollection[scf.Segment](m, epoch, c); err != nil {
				return err
			}
		}
		slot, ok, err := Latest(n, "rot", 2)
		if err != nil {
			return err
		}
		if !ok || slot.Epoch != 5 {
			return fmt.Errorf("Latest = %+v ok=%v, want epoch 5", slot, ok)
		}
		// Epoch 5 → slot 1; epoch 4 survives in slot 0.
		if slot.Slot != 1 {
			return fmt.Errorf("slot = %d, want 1", slot.Slot)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTornCheckpointFallsBack: a crash mid-save must leave the previous
// checkpoint restorable — the manager's whole reason to exist.
func TestTornCheckpointFallsBack(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	// Epoch 1 lands in slot 1 and commits.
	if err := runOn(t, fs, 2, func(n *machine.Node) error {
		d, _ := distr.New(8, 2, distr.Cyclic, 0)
		c, err := fillSeg(n, d, 1)
		if err != nil {
			return err
		}
		m, err := New(n, "torn", 2)
		if err != nil {
			return err
		}
		return SaveCollection[scf.Segment](m, 1, c)
	}); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 targets slot 0; its data file dies mid-write.
	if err := fs.InjectFault("torn.0", 1); err != nil {
		t.Fatal(err)
	}
	err := runOn(t, fs, 2, func(n *machine.Node) error {
		d, _ := distr.New(8, 2, distr.Cyclic, 0)
		c, cerr := fillSeg(n, d, 2)
		if cerr != nil {
			return cerr
		}
		m, merr := New(n, "torn", 2)
		if merr != nil {
			return merr
		}
		return SaveCollection[scf.Segment](m, 2, c)
	})
	if err == nil {
		t.Fatal("torn save succeeded")
	}

	// Restart: must restore epoch 1, not the torn epoch 2.
	if err := runOn(t, fs, 2, func(n *machine.Node) error {
		d, _ := distr.New(8, 2, distr.Cyclic, 0)
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		epoch, err := RestoreCollection[scf.Segment](n, "torn", 2, c)
		if err != nil {
			return err
		}
		if epoch != 1 {
			return fmt.Errorf("restored epoch %d, want 1", epoch)
		}
		var bad error
		c.Apply(func(g int, s *scf.Segment) {
			var want scf.Segment
			want.Fill(g+1000, 5)
			if !s.Equal(&want) {
				bad = fmt.Errorf("global %d holds wrong data", g)
			}
		})
		return bad
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleCommitRejected: a commit marker whose recorded length no longer
// matches the data file must invalidate the slot.
func TestStaleCommitRejected(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		d, _ := distr.New(4, 1, distr.Block, 0)
		c, err := fillSeg(n, d, 3)
		if err != nil {
			return err
		}
		m, err := New(n, "stale", 1)
		if err != nil {
			return err
		}
		if err := SaveCollection[scf.Segment](m, 9, c); err != nil {
			return err
		}
		// Corrupt the data file length after commit.
		f, err := n.Open("stale.0", false)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.WriteAt([]byte{0xFF}, f.Size()) // append a stray byte
	}); err != nil {
		t.Fatal(err)
	}
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		if _, ok, err := Latest(n, "stale", 1); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("length-mismatched slot validated")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestColdStart(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 2, func(n *machine.Node) error {
		if _, ok, err := Latest(n, "nothing", 3); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("cold start found a checkpoint")
		}
		d, _ := distr.New(4, 2, distr.Block, 0)
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		_, err = RestoreCollection[scf.Segment](n, "nothing", 3, c)
		if err == nil || !strings.Contains(err.Error(), "no valid checkpoint") {
			return fmt.Errorf("cold restore: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		if _, err := New(n, "x", 0); err == nil {
			return fmt.Errorf("0 slots accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleSlotTornIsUnrecoverable: with only one slot, a torn save leaves
// nothing to fall back to — the reason New documents "at least 2 to survive
// a crash during a save".
func TestSingleSlotTornIsUnrecoverable(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		d, _ := distr.New(4, 1, distr.Block, 0)
		c, err := fillSeg(n, d, 1)
		if err != nil {
			return err
		}
		m, err := New(n, "solo", 1)
		if err != nil {
			return err
		}
		return SaveCollection[scf.Segment](m, 1, c)
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.InjectFault("solo.0", 1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 reuses slot 0 and tears, destroying epoch 1 too.
	err := runOn(t, fs, 1, func(n *machine.Node) error {
		d, _ := distr.New(4, 1, distr.Block, 0)
		c, cerr := fillSeg(n, d, 2)
		if cerr != nil {
			return cerr
		}
		m, merr := New(n, "solo", 1)
		if merr != nil {
			return merr
		}
		return SaveCollection[scf.Segment](m, 2, c)
	})
	if err == nil {
		t.Fatal("torn save succeeded")
	}
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		_, ok, err := Latest(n, "solo", 1)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("single-slot torn checkpoint still validated")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestResaveSameEpoch: overwriting an epoch in place is legal (same slot)
// and the newest data wins.
func TestResaveSameEpoch(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	if err := runOn(t, fs, 2, func(n *machine.Node) error {
		d, _ := distr.New(6, 2, distr.Cyclic, 0)
		m, err := New(n, "re", 2)
		if err != nil {
			return err
		}
		for _, salt := range []int{1, 2} {
			c, err := fillSeg(n, d, salt)
			if err != nil {
				return err
			}
			if err := SaveCollection[scf.Segment](m, 5, c); err != nil {
				return err
			}
		}
		back, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		epoch, err := RestoreCollection[scf.Segment](n, "re", 2, back)
		if err != nil {
			return err
		}
		if epoch != 5 {
			return fmt.Errorf("epoch %d", epoch)
		}
		var bad error
		back.Apply(func(g int, s *scf.Segment) {
			var want scf.Segment
			want.Fill(g+2000, 5) // the second save's data
			if !s.Equal(&want) {
				bad = fmt.Errorf("global %d holds stale data", g)
			}
		})
		return bad
	}); err != nil {
		t.Fatal(err)
	}
}

// TestManagerAcrossMachineShapes: save on 4, save again on 2 (append more
// history), restore on 3 — managers are stateless across machines.
func TestManagerAcrossMachineShapes(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	save := func(procs int, epoch uint64, salt int) {
		if err := runOn(t, fs, procs, func(n *machine.Node) error {
			d, _ := distr.New(12, procs, distr.Cyclic, 0)
			c, err := fillSeg(n, d, salt)
			if err != nil {
				return err
			}
			m, err := New(n, "mix", 3)
			if err != nil {
				return err
			}
			return SaveCollection[scf.Segment](m, epoch, c)
		}); err != nil {
			t.Fatal(err)
		}
	}
	save(4, 10, 1)
	save(2, 20, 2)
	if err := runOn(t, fs, 3, func(n *machine.Node) error {
		d, _ := distr.New(12, 3, distr.Block, 0)
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		epoch, err := RestoreCollection[scf.Segment](n, "mix", 3, c)
		if err != nil {
			return err
		}
		if epoch != 20 {
			return fmt.Errorf("restored epoch %d, want 20", epoch)
		}
		var bad error
		c.Apply(func(g int, s *scf.Segment) {
			var want scf.Segment
			want.Fill(g+2000, 5)
			if !s.Equal(&want) {
				bad = fmt.Errorf("global %d mismatch", g)
			}
		})
		return bad
	}); err != nil {
		t.Fatal(err)
	}
}

// TestVerdictIsEveryRanks: node 0 alone inspects a slot; what it finds — the
// committed epoch, or that nothing valid is there — is what every rank gets.
func TestVerdictIsEveryRanks(t *testing.T) {
	const nprocs = 3
	fs := pfs.NewMemFS(vtime.Challenge())
	type verdict struct {
		epoch uint64
		ok    bool
	}
	ask := func(want verdict) {
		t.Helper()
		got := make([]verdict, nprocs)
		if err := runOn(t, fs, nprocs, func(n *machine.Node) (err error) {
			v := &got[n.Rank()]
			v.epoch, v.ok, err = validate(n, "v.1")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for r, v := range got {
			if v != want {
				t.Fatalf("rank %d: verdict %+v, want %+v", r, v, want)
			}
		}
	}
	ask(verdict{}) // nothing there yet
	if err := runOn(t, fs, nprocs, func(n *machine.Node) error {
		d, _ := distr.New(6, nprocs, distr.Block, 0)
		c, err := fillSeg(n, d, 1)
		if err != nil {
			return err
		}
		m, err := New(n, "v", 2)
		if err != nil {
			return err
		}
		return SaveCollection[scf.Segment](m, 7, c) // epoch 7 → slot 1
	}); err != nil {
		t.Fatal(err)
	}
	ask(verdict{epoch: 7, ok: true})
	if err := runOn(t, fs, 1, func(n *machine.Node) error {
		f, err := n.Open("v.1.commit", false)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.WriteAt([]byte{'X'}, 0) // no longer the marker's magic
	}); err != nil {
		t.Fatal(err)
	}
	ask(verdict{})
}
