package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/ckpt"
	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// kept is a factory that remembers the backend it made for each name, so a
// test can ask the store itself what a file system's handles hide from it.
type kept struct {
	mu    sync.Mutex
	inner pfs.BackendFactory
	made  map[string]pfs.Backend
}

func keep(inner pfs.BackendFactory) *kept {
	return &kept{inner: inner, made: map[string]pfs.Backend{}}
}

func (k *kept) factory(name string) (pfs.Backend, error) {
	b, err := k.inner(name)
	if err == nil {
		k.mu.Lock()
		k.made[name] = b
		k.mu.Unlock()
	}
	return b, err
}

func (k *kept) backend(name string) pfs.Backend {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.made[name]
}

// TestOverwriteReadsAsTruncated pins the pfs contract of a file opened over
// its image (OpenOver) on every store a file system runs on: in memory, the
// striped store, an OS file and a dstreamd client. A two-rank generation
// opened over a larger image sees an empty file, appends from offset 0, and
// reads, sizes and images it as if the open had truncated it — the old
// image's bytes past the logical end read as missing — and its last Close
// leaves the store exactly the logical end long. A store whose cut fails
// fails that Close, and a checkpoint saved through it commits nothing.
func TestOverwriteReadsAsTruncated(t *testing.T) {
	const name, big, small = "f", 3000, 100
	stores := []struct {
		name    string
		factory func(t *testing.T) pfs.BackendFactory
	}{
		{"mem", func(*testing.T) pfs.BackendFactory { return pfs.MemFactory() }},
		{"striped", func(*testing.T) pfs.BackendFactory { return pfs.StripedMemFactory(3, 64) }},
		{"os", func(t *testing.T) pfs.BackendFactory { return pfs.OSFactory(t.TempDir()) }},
		{"dstreamd", func(t *testing.T) pfs.BackendFactory {
			srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}, StripeFactor: 3, StripeUnit: 128})
			return dial(t, srv, "a").Factory()
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			k := keep(st.factory(t))
			fs := pfs.NewFileSystem(vtime.Paragon(), k.factory)
			run := func(body func(n *machine.Node) error) {
				t.Helper()
				if _, err := machine.Run(machine.Config{NProcs: 2, Profile: vtime.Paragon(), FS: fs}, body); err != nil {
					t.Fatal(err)
				}
			}
			run(func(n *machine.Node) error {
				f, err := n.Open(name, true)
				if err != nil {
					return err
				}
				if _, err := f.ParallelAppend(pattern(big, byte(n.Rank()))); err != nil {
					return err
				}
				return f.Close()
			})
			want := append(pattern(small, 10), pattern(small, 11)...)
			run(func(n *machine.Node) error {
				f, err := n.OpenOver(name)
				if err != nil {
					return err
				}
				if got := f.Size(); got != 0 {
					return fmt.Errorf("Size after OpenOver = %d, want 0", got)
				}
				off, err := f.ParallelAppend(pattern(small, byte(10+n.Rank())))
				if err != nil {
					return err
				}
				if off != int64(n.Rank()*small) {
					return fmt.Errorf("block landed at %d, want %d", off, n.Rank()*small)
				}
				if got := f.Size(); got != 2*small {
					return fmt.Errorf("Size after the append = %d, want %d", got, 2*small)
				}
				if n.Rank() == 0 {
					img, err := fs.Image(name)
					if err != nil || !bytes.Equal(img, want) {
						return fmt.Errorf("Image: %d bytes (err %v), want the %d appended", len(img), err, len(want))
					}
				}
				// Independent reads: across the logical end, and wholly past it
				// (inside the old image either way).
				p := make([]byte, 20)
				if err := f.ReadAt(p, 2*small-10); !errors.Is(err, io.ErrUnexpectedEOF) {
					return fmt.Errorf("ReadAt across the logical end: %v, want %v", err, io.ErrUnexpectedEOF)
				}
				if err := f.ReadAt(p, 2*small+50); !errors.Is(err, io.EOF) {
					return fmt.Errorf("ReadAt past the logical end: %v, want %v", err, io.EOF)
				}
				// A collective read inside the logical end reads the new bytes;
				// one across it fails on every rank.
				got, err := f.ParallelRead(pfs.Range{Off: int64(n.Rank() * small), Len: small})
				if err != nil || !bytes.Equal(got, want[n.Rank()*small:][:small]) {
					return fmt.Errorf("ParallelRead inside the logical end: err %v", err)
				}
				bufpool.Put(got)
				if _, err := f.ParallelRead(pfs.Range{Off: 2*small - 10, Len: 20}); !errors.Is(err, io.ErrUnexpectedEOF) {
					return fmt.Errorf("ParallelRead across the logical end: %v, want %v", err, io.ErrUnexpectedEOF)
				}
				return f.Close()
			})
			if got := k.backend(name).Size(); got != 2*small {
				t.Fatalf("store size after the last close = %d, want the logical end %d", got, 2*small)
			}
			img, err := fs.Image(name)
			if err != nil || !bytes.Equal(img, want) {
				t.Fatalf("Image after the last close: %d bytes (err %v), want the %d appended", len(img), err, len(want))
			}
		})
	}

	t.Run("failed-cut", func(t *testing.T) {
		fs := pfs.NewFileSystem(vtime.Paragon(), func(name string) (pfs.Backend, error) {
			b := pfs.NewMemBackend()
			if name == "ck.0" {
				return cutFails{b}, nil
			}
			return b, nil
		})
		save := func(epoch uint64) error {
			_, err := machine.Run(machine.Config{NProcs: 2, Profile: vtime.Paragon(), FS: fs}, func(n *machine.Node) error {
				d, _ := distr.New(8, 2, distr.Block, 0)
				c, err := collection.New[scf.Segment](n, d)
				if err != nil {
					return err
				}
				c.Apply(func(g int, s *scf.Segment) { s.Fill(g, 5) })
				m, err := ckpt.New(n, "ck", 2)
				if err != nil {
					return err
				}
				return ckpt.SaveCollection[scf.Segment](m, epoch, c)
			})
			return err
		}
		if err := save(1); err != nil {
			t.Fatal(err)
		}
		if err := save(2); !errors.Is(err, errCut) {
			t.Fatalf("save into a store whose cut fails: %v, want %v", err, errCut)
		}
		if img, err := fs.Image("ck.0.commit"); err != nil || len(img) != 0 {
			t.Fatalf("marker after the failed cut: %d bytes (err %v), want none", len(img), err)
		}
		if _, err := machine.Run(machine.Config{NProcs: 1, Profile: vtime.Paragon(), FS: fs}, func(n *machine.Node) error {
			slot, ok, err := ckpt.Latest(n, "ck", 2)
			if err != nil || !ok || slot.Epoch != 1 {
				return fmt.Errorf("Latest = %+v, %v, %v; want epoch 1", slot, ok, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

var errCut = errors.New("cut refused")

// cutFails is a store whose Truncate fails.
type cutFails struct{ pfs.Backend }

func (cutFails) Truncate(int64) error { return errCut }
