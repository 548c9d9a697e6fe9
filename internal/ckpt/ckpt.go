// Package ckpt is a checkpoint manager built on d/streams, productizing
// the paper's §2 flagship task: "Many long-running parallel applications
// need to save the state of complex distributed data-sets periodically so
// that computation can be resumed at a later point. Periodically saving
// data-sets provides insurance against program termination by software bugs
// and job-control facilities."
//
// The manager rotates checkpoints across a fixed number of slots and makes
// each one crash-consistent with a commit marker: the slot's marker is
// invalidated before the d/stream write begins and re-written (with the
// epoch and the exact data length) only after the write completed, so a
// checkpoint torn by a mid-write crash is never restored — recovery falls
// back to the newest slot whose marker validates. Restart may use a
// different processor count and distribution, as d/streams allow.
package ckpt

import (
	"bytes"
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
)

// commit marker layout: magic (8) | epoch (8) | dataLen (8).
var commitMagic = [8]byte{'D', 'S', 'C', 'K', '1', 0, 0, 0}

const commitLen = 24

// Manager coordinates rotated checkpoints for one SPMD program. Every node
// constructs an identical Manager and calls its methods collectively.
type Manager struct {
	node  *machine.Node
	base  string
	slots int
}

// New creates a manager writing checkpoints named base.<slot> with
// base.<slot>.commit markers, rotating over the given number of slots
// (at least 2 to survive a crash during a save).
func New(node *machine.Node, base string, slots int) (*Manager, error) {
	if slots < 1 {
		return nil, fmt.Errorf("ckpt: need at least 1 slot, got %d", slots)
	}
	return &Manager{node: node, base: base, slots: slots}, nil
}

func (m *Manager) slotFile(slot int) string   { return fmt.Sprintf("%s.%d", m.base, slot) }
func (m *Manager) commitFile(slot int) string { return m.slotFile(slot) + ".commit" }

// Save writes one checkpoint for the given epoch (a monotonically
// increasing step counter chosen by the application). The slot is
// epoch mod slots, so the previous checkpoint survives until this one
// commits. write receives an open output d/stream and performs the
// insert/write calls.
func (m *Manager) Save(epoch uint64, d *distr.Distribution, write func(*dstream.OStream) error) error {
	slot := int(epoch % uint64(m.slots))

	// 1. Invalidate the slot's marker BEFORE touching its data, so a crash
	// mid-write leaves an invalid (not stale-valid) slot.
	if err := m.writeCommit(slot, nil); err != nil {
		return fmt.Errorf("ckpt: invalidate slot %d: %w", slot, err)
	}

	// 2. Write the checkpoint data through a d/stream.
	s, err := dstream.Open(m.node, d, m.slotFile(slot))
	if err != nil {
		return fmt.Errorf("ckpt: open slot %d: %w", slot, err)
	}
	if err := write(s); err != nil {
		s.Close()
		return fmt.Errorf("ckpt: write epoch %d: %w", epoch, err)
	}
	dataLen := s.FileSize()
	if err := s.Close(); err != nil {
		return fmt.Errorf("ckpt: close slot %d: %w", slot, err)
	}

	// 3. Commit: marker carries the epoch and the exact data length.
	var e enc.Buffer
	e.Raw(commitMagic[:])
	e.Uint64(epoch)
	e.Uint64(uint64(dataLen))
	if err := m.writeCommit(slot, e.Bytes()); err != nil {
		return fmt.Errorf("ckpt: commit epoch %d: %w", epoch, err)
	}
	return nil
}

// writeCommit replaces the slot's marker (nil body = invalidate). Node 0
// does the file work; all nodes synchronize.
func (m *Manager) writeCommit(slot int, body []byte) error {
	f, err := m.node.Open(m.commitFile(slot), true)
	if err != nil {
		return err
	}
	defer f.Close()
	// Truncate-on-open cleared it; an empty marker is invalid by itself.
	if err := f.ControlSync(); err != nil {
		return err
	}
	if m.node.Rank() == 0 && len(body) > 0 {
		if err := f.WriteAt(body, 0); err != nil {
			return err
		}
	}
	return f.ControlSync()
}

// Slot describes one validated checkpoint slot.
type Slot struct {
	Slot  int
	Epoch uint64
	File  string
}

// Latest returns the newest valid checkpoint, scanning every slot's commit
// marker and verifying the recorded data length against the slot file. ok
// is false when no slot validates (cold start).
func Latest(node *machine.Node, base string, slots int) (Slot, bool, error) {
	best := Slot{}
	found := false
	for slot := 0; slot < slots; slot++ {
		name := fmt.Sprintf("%s.%d", base, slot)
		epoch, ok, err := validate(node, name)
		if err != nil {
			return Slot{}, false, err
		}
		if ok && (!found || epoch > best.Epoch) {
			best = Slot{Slot: slot, Epoch: epoch, File: name}
			found = true
		}
	}
	return best, found, nil
}

// validate checks one slot's marker on node 0 and gives every node the
// verdict: the committed epoch, or ok false for a slot no checkpoint
// committed to.
func validate(node *machine.Node, name string) (epoch uint64, ok bool, err error) {
	verdict, frame, err := node.Comm().Rooted(0, func() ([]byte, error) { return validateLocal(node, name), nil })
	if err != nil {
		return 0, false, fmt.Errorf("ckpt: validate %s: %w", name, err)
	}
	defer bufpool.Put(frame)
	switch len(verdict) {
	case 0:
		return 0, false, nil
	case 8:
		return enc.NewReader(verdict).Uint64(), true, nil
	}
	return 0, false, fmt.Errorf("ckpt: malformed verdict for %s", name)
}

// validateLocal returns the 8-byte epoch of the checkpoint committed to the
// slot, or nil when its marker or its data file says there is none.
func validateLocal(node *machine.Node, name string) []byte {
	f, err := node.Open(name+".commit", false)
	if err != nil {
		return nil
	}
	defer f.Close()
	if f.Size() != commitLen {
		return nil
	}
	buf := make([]byte, commitLen)
	if err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf[:8], commitMagic[:]) {
		return nil
	}
	df, err := node.Open(name, false)
	if err != nil {
		return nil
	}
	defer df.Close()
	if dataLen := enc.NewReader(buf[16:]).Uint64(); uint64(df.Size()) != dataLen {
		return nil
	}
	return buf[8:16]
}

// Restore opens the newest valid checkpoint and hands an input d/stream to
// read, returning the restored epoch. The reader's distribution d may
// differ (in layout and processor count) from the writer's.
func Restore(node *machine.Node, base string, slots int, d *distr.Distribution, read func(*dstream.IStream) error) (uint64, error) {
	slot, ok, err := Latest(node, base, slots)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("ckpt: no valid checkpoint under %q", base)
	}
	s, err := dstream.OpenInput(node, d, slot.File)
	if err != nil {
		return 0, fmt.Errorf("ckpt: open %s: %w", slot.File, err)
	}
	defer s.Close()
	if err := read(s); err != nil {
		return 0, fmt.Errorf("ckpt: restore epoch %d: %w", slot.Epoch, err)
	}
	return slot.Epoch, nil
}

// SaveCollection checkpoints a whole collection in one record — the common
// case, matching `s << g; s.write()`.
func SaveCollection[T any, PT dstream.InserterPtr[T]](m *Manager, epoch uint64, c *collection.Collection[T]) error {
	return m.Save(epoch, c.Dist(), func(s *dstream.OStream) error {
		if err := dstream.Insert[T, PT](s, c); err != nil {
			return err
		}
		return s.Write()
	})
}

// RestoreCollection restores a whole collection from the newest valid
// checkpoint, with sorted reads (order and ownership restored).
func RestoreCollection[T any, PT dstream.ExtractorPtr[T]](node *machine.Node, base string, slots int, c *collection.Collection[T]) (uint64, error) {
	return Restore(node, base, slots, c.Dist(), func(s *dstream.IStream) error {
		if err := s.Read(); err != nil {
			return err
		}
		return dstream.Extract[T, PT](s, c)
	})
}
