package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// gate lets WriteAt and ReadAt through in rounds of p calls, each call only
// once all p of its round are inside at the same time; a round that does
// not fill within ten seconds fails its calls (the serial executor's fate).
type gate struct {
	pfs.Backend
	p     int
	mu    sync.Mutex
	calls int
	open  []chan struct{}
}

func (g *gate) enter() error {
	g.mu.Lock()
	round := g.calls / g.p
	g.calls++
	if round == len(g.open) {
		g.open = append(g.open, make(chan struct{}))
	}
	ch := g.open[round]
	if g.calls%g.p == 0 {
		close(ch)
	}
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("gate: round %d never had all %d calls inside at once", round, g.p)
	}
}

// entered counts the calls that have reached the gate so far.
func (g *gate) entered() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

func (g *gate) WriteAt(p []byte, off int64) (int, error) {
	if err := g.enter(); err != nil {
		return 0, err
	}
	return g.Backend.WriteAt(p, off)
}

func (g *gate) ReadAt(p []byte, off int64) (int, error) {
	if err := g.enter(); err != nil {
		return 0, err
	}
	return g.Backend.ReadAt(p, off)
}

// TestEachRankMovesItsOwnBlockOverDaemon is the daemon client's row of the
// pfs rendezvous contract (internal/pfs TestEachRankMovesItsOwnBlock): the P
// backend writes of a collective append and the P reads of a collective read
// are in flight on the one session at once — eager-sized and bulk blocks,
// the latter through the tenant's credit window — and the file holds the
// blocks in rank order.
func TestEachRankMovesItsOwnBlockOverDaemon(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli := dial(t, srv, "a")
	for _, size := range []int{1000, 100 << 10} {
		for nprocs := 2; nprocs <= 4; nprocs++ {
			t.Run(fmt.Sprintf("%dB/P=%d", size, nprocs), func(t *testing.T) {
				name := fmt.Sprintf("f.%d.%d", size, nprocs)
				var g *gate
				fs := pfs.NewFileSystem(vtime.Challenge(), func(name string) (pfs.Backend, error) {
					b, err := cli.OpenBackend(name)
					g = &gate{Backend: b, p: nprocs}
					return g, err
				})
				block := func(r int) []byte { return bytes.Repeat([]byte{byte('a' + r)}, size+r) }
				if _, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs}, func(n *machine.Node) error {
					h, err := n.Open(name, true)
					if err != nil {
						return err
					}
					defer h.Close()
					off, err := h.ParallelAppend(block(n.Rank()))
					if err != nil {
						return err
					}
					got, err := h.ParallelRead(pfs.Range{Off: off, Len: size + n.Rank()})
					if err != nil {
						return err
					}
					defer bufpool.Put(got)
					if !bytes.Equal(got, block(n.Rank())) {
						return fmt.Errorf("rank %d read back other bytes than it wrote", n.Rank())
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				var want []byte
				for r := range nprocs {
					want = append(want, block(r)...)
				}
				img := make([]byte, len(want))
				if _, err := g.Backend.ReadAt(img, 0); err != nil || !bytes.Equal(img, want) {
					t.Errorf("image is not the blocks in rank order (%v)", err)
				}
				if g.calls != 2*nprocs {
					t.Errorf("%d backend calls, want one write and one read a rank: %d", g.calls, 2*nprocs)
				}
			})
		}
	}
}
