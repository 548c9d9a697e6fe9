//go:build linux

package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// An input stream over a same-host session reads each record's share into a
// run of the connection's shared chunks, which the client hands out as the
// stream's refill buffer: the daemon's store reads into the chunks and the
// decoders read them in place, with no client copy between. An output stream
// encodes each insert into such a run, which the daemon's store writes from.
// These tests pin that the run is held, and released, as a buffer of the
// stream's own.

// ckptRun runs body on nprocs ranks over cli's file system, each with the
// cyclic layout of segs Segments and a collection of them, and fill, which
// gives the collection record rec's Segments of particles each.
func ckptRun(cli *server.Client, nprocs, segs, particles int,
	body func(n *machine.Node, d *distr.Distribution, src *collection.Collection[scf.Segment], fill func(rec int)) error) error {
	fs := pfs.NewFileSystem(vtime.Paragon(), cli.Factory())
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Paragon(), FS: fs}, func(n *machine.Node) error {
		d, err := distr.New(segs, nprocs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		src, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		return body(n, d, src, func(rec int) {
			for l := range src.Local() {
				src.At(l).Fill(rec*segs+src.GlobalIndexOf(l), particles)
			}
		})
	})
	return err
}

// ckptWrite writes records of segs Segments of particles each from nprocs
// ranks through cli, with the parallel strategy and a cyclic layout. mid
// runs on every rank between each Insert and its Write (nil for none).
func ckptWrite(cli *server.Client, nprocs, segs, particles, records int, mid func(n *machine.Node, rec int) error) error {
	return ckptRun(cli, nprocs, segs, particles, func(n *machine.Node, d *distr.Distribution, src *collection.Collection[scf.Segment], fill func(int)) error {
		return writeRecords(n, d, src, fill, records, mid)
	})
}

// writeRecords is ckptWrite on one rank.
func writeRecords(n *machine.Node, d *distr.Distribution, src *collection.Collection[scf.Segment], fill func(int),
	records int, mid func(n *machine.Node, rec int) error) error {
	out, err := dstream.Open(n, d, "ckpt", dstream.WithStrategy(dstream.StrategyParallel))
	if err != nil {
		return err
	}
	defer out.Close()
	for rec := range records {
		fill(rec)
		if err := dstream.Insert(out, src); err != nil {
			return err
		}
		if mid != nil {
			if err := mid(n, rec); err != nil {
				return err
			}
		}
		if err := out.Write(); err != nil {
			return err
		}
	}
	return out.Close()
}

// ckptRead writes ckptWrite's records and reads them back on the same
// layout. mid runs on every rank between each Read and its Extract (nil for
// none); every Segment must come back equal.
func ckptRead(cli *server.Client, nprocs, segs, particles, records int, mid func(n *machine.Node, rec int) error) error {
	if err := ckptWrite(cli, nprocs, segs, particles, records, nil); err != nil {
		return err
	}
	return ckptReadBack(cli, nprocs, segs, particles, records, mid)
}

// ckptReadBack is ckptRead's read half.
func ckptReadBack(cli *server.Client, nprocs, segs, particles, records int, mid func(n *machine.Node, rec int) error) error {
	return ckptRun(cli, nprocs, segs, particles, func(n *machine.Node, d *distr.Distribution, src *collection.Collection[scf.Segment], fill func(int)) error {
		in, err := dstream.OpenInput(n, d, "ckpt", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		defer in.Close()
		back, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		for rec := range records {
			if err := in.UnsortedRead(); err != nil {
				return err
			}
			if mid != nil {
				if err := mid(n, rec); err != nil {
					return err
				}
			}
			if err := dstream.Extract(in, back); err != nil {
				return err
			}
			fill(rec)
			for l := range back.Local() {
				if !back.At(l).Equal(src.At(l)) {
					return fmt.Errorf("rank %d record %d: segment %d read back other bytes", n.Rank(), rec, back.GlobalIndexOf(l))
				}
			}
		}
		return in.Close()
	})
}

// chunkRss is the resident size, in bytes, of the largest mapping of a chunk
// file in this process: what one side of a connection has touched of its
// shared chunks.
func chunkRss(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var most int64
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if fields := strings.Fields(line); len(fields) > 0 && strings.Contains(fields[0], "-") {
			in = strings.Contains(line, "memfd:dstreamd")
			continue
		}
		if rest, ok := strings.CutPrefix(line, "Rss:"); ok && in {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			most = max(most, kb<<10)
		}
	}
	return most
}

// frontMatter is what node 0 reads of ckptRead's file of records records
// besides their data: the file header at open, and of each record its header,
// the layout's descriptor and the size table. These cross as any small read
// does, copied out of a chunk.
func frontMatter(t *testing.T, cli *server.Client, records int) int64 {
	t.Helper()
	f, err := cli.OpenBackend("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, enc.RecordHeaderLen)
	if _, err := f.ReadAt(b, enc.FileHeaderLen); err != nil {
		t.Fatal(err)
	}
	h, err := enc.DecodeRecordHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	return enc.FileHeaderLen + int64(records)*(enc.RecordHeaderLen+int64(h.DescBytes)+h.SizeTableBytes())
}

// TestSameHostReadCopiesNothing is the daemon benchmark's read at the
// daemon's default geometry — four ranks, 2048 Segments of 100 particles,
// the parallel strategy — over the same-host socket: each rank's 2.9 MB share
// lands in a run of three chunks of the connection's sixteen, the client
// copies no byte of the data out of a chunk (only the front matter), and no
// read falls back to a pooled buffer.
// Under -tags pooldebug it is also the pin of readLoop's poison: a held chunk
// poisoned after its reply fails byte identity.
func TestSameHostReadCopiesNothing(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli := dial(t, srv, "a")
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	held := 0
	if err := ckptRead(cli, 4, 2048, scf.DefaultParticles, 1, func(n *machine.Node, _ int) error {
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		if n.Rank() == 0 {
			_, _, _, held, _ = cli.ChunkCounts()
		}
		return n.Comm().Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	copied, _, pooled, after, granted := cli.ChunkCounts()
	front := frontMatter(t, cli, 1)
	t.Logf("%d chunks granted, %d runs held mid-read, %d MiB resident per mapping", granted, held, chunkRss(t)>>20)
	if granted != 16 || held != 4 || after != 0 {
		t.Errorf("%d chunks granted, %d runs held mid-read and %d after Close; want 16, 4 and 0", granted, held, after)
	}
	if copied != front || pooled != 0 {
		t.Errorf("the client copied %d bytes out of chunks and %d reads drew a pooled buffer; want the front matter's %d and 0",
			copied, pooled, front)
	}
}

// TestHeldRunSurvivesKillConnections: a connection cut while every rank's
// stream holds a run of its chunks. The record already read decodes
// byte-identical out of the old mapping, which stays mapped until the
// streams release their runs; the next record's read releases them and
// draws runs of the new connection's chunks, so the old mapping goes.
func TestHeldRunSurvivesKillConnections(t *testing.T) {
	noMappings(t)
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	// Both sides of the one connection, before the streams take anything.
	before := chunkMappings(t)
	waitMappings := func(want int, what string) error {
		for deadline := time.Now().Add(10 * time.Second); chunkMappings(t) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: %d chunk mappings, want %d", what, chunkMappings(t), want)
			}
		}
		return nil
	}
	if err := ckptRead(cli, 4, 512, scf.DefaultParticles, 2, func(n *machine.Node, rec int) error {
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		if n.Rank() == 0 && rec > 0 {
			if err := waitMappings(before, "the next record read into the new mapping"); err != nil {
				return err
			}
		}
		if n.Rank() == 0 && rec == 0 {
			if _, _, _, held, _ := cli.ChunkCounts(); held != 4 {
				return fmt.Errorf("%d runs held after the first read, want 4", held)
			}
			srv.KillConnections()
			if _, _, err := cli.Usage(); err != nil { // over the new connection
				return err
			}
			// The old client mapping stays for the runs; the daemon's old one
			// goes, and the new connection maps one on each side.
			if err := waitMappings(before+1, "reconnected while the runs are held"); err != nil {
				return err
			}
		}
		return n.Comm().Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if err := waitMappings(before, "the streams closed"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, held, _ := cli.ChunkCounts(); held != 0 {
		t.Fatalf("%d runs held after the streams closed", held)
	}
}

// gateStore is a daemon's store whose reads of at least min bytes, from the
// first one on, wait at the gate until open is closed; reached is closed when
// the first one arrives.
type gateStore struct {
	pfs.Backend
	min           int
	once          *sync.Once
	reached, open chan struct{}
}

func (g gateStore) ReadAt(p []byte, off int64) (int, error) {
	if len(p) >= g.min {
		g.once.Do(func() { close(g.reached) })
		<-g.open
	}
	return g.Backend.ReadAt(p, off)
}

// TestCutWithHeldReadInFlight: a connection cut while reads into held runs
// are in flight — on the daemon, held at its store, as a request parked in
// the tenant window's admission would be. The dead connection's request may
// fill its chunk after anything the new connection does, poisoned under
// pooldebug, so the read is withdrawn, not resent into the run: each such
// rank reads its share again into a pooled buffer. The test writes into the
// chunks of those reads after every rank's Read has returned, as a late
// request of the dead connection would, and every record still decodes
// byte-identical; the old mapping goes once the runs are released.
func TestCutWithHeldReadInFlight(t *testing.T) {
	noMappings(t)
	g := gateStore{min: 64 << 10, once: new(sync.Once), reached: make(chan struct{}), open: make(chan struct{})}
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a"}},
		Factory: func(string) (pfs.Backend, error) {
			g := g
			g.Backend = pfs.NewMemBackend()
			return g, nil
		},
	})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Network() != "unix" {
		close(g.open)
		t.Skip("no same-host socket")
	}
	before := chunkMappings(t)
	var stale [][]byte
	cut := make(chan func(), 1)
	go func() {
		<-g.reached
		// Every large read reaching the store from now on waits at the gate,
		// so each held read pending now is still in flight at the cut.
		chunks, done := cli.HeldInFlight()
		stale = chunks
		srv.KillConnections()
		close(g.open)
		cut <- done
	}()
	var letGo func()
	err = ckptRead(cli, 4, 512, scf.DefaultParticles, 2, func(n *machine.Node, rec int) error {
		if rec > 0 {
			return nil
		}
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		if n.Rank() == 0 {
			letGo = <-cut
			for _, c := range stale {
				for i := range c {
					c[i] = 0xA5
				}
			}
		}
		return n.Comm().Barrier()
	})
	if letGo != nil {
		letGo()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) == 0 {
		t.Fatal("no held read was in flight at the cut")
	}
	for deadline := time.Now().Add(10 * time.Second); chunkMappings(t) != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunk mappings after the streams closed, want %d", chunkMappings(t), before)
		}
	}
}

// writeGate is gateStore for writes: a daemon's store whose writes of at
// least min bytes, from the first one on, wait at the gate until open is
// closed; reached is closed when the first one arrives. Its reads pass.
type writeGate struct{ gateStore }

func (g writeGate) ReadAt(p []byte, off int64) (int, error) { return g.Backend.ReadAt(p, off) }

func (g writeGate) WriteAt(p []byte, off int64) (int, error) {
	if len(p) >= g.min {
		g.once.Do(func() { close(g.reached) })
		<-g.open
	}
	return g.Backend.WriteAt(p, off)
}

// TestCutWithHeldWriteInFlight: a connection cut while writes from held runs
// are in flight — on the daemon, held at its store. Each is resent on the new
// connection, its run copied into a chunk of the new mapping: its caller is
// parked, so the run is still the caller's, and the file reads back
// byte-identical. Then, with every Write returned and every run released,
// the test stores each such write's chunk again, as a request of the dead
// connection parked in the tenant window's admission would once admitted
// after its resend was answered: a run of a retired mapping is not poisoned
// at release, so the file still reads back byte-identical, under pooldebug
// too. The old mapping goes once the test lets go of it.
func TestCutWithHeldWriteInFlight(t *testing.T) {
	noMappings(t)
	g := writeGate{gateStore{min: 64 << 10, once: new(sync.Once), reached: make(chan struct{}), open: make(chan struct{})}}
	stores := make(chan pfs.Backend, 1)
	srv := startDaemon(t, server.Config{
		Tenants: []server.Tenant{{Name: "a"}},
		Factory: func(string) (pfs.Backend, error) {
			g := g
			g.Backend = pfs.NewMemBackend()
			stores <- g.Backend
			return g, nil
		},
	})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Network() != "unix" {
		close(g.open)
		t.Skip("no same-host socket")
	}
	before := chunkMappings(t)
	type inFlight struct {
		data [][]byte
		offs []int64
		done func()
	}
	cut := make(chan inFlight, 1)
	go func() {
		<-g.reached
		// Every large write reaching the store from now on waits at the gate,
		// so each held write pending now is still in flight at the cut.
		data, offs, done := cli.HeldWritesInFlight()
		srv.KillConnections()
		close(g.open)
		cut <- inFlight{data, offs, done}
	}()
	if err := ckptWrite(cli, 4, 512, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatal(err)
	}
	stale := <-cut
	defer func() { stale.done() }()
	if len(stale.data) == 0 {
		t.Fatal("no held write was in flight at the cut")
	}
	if err := ckptReadBack(cli, 4, 512, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatalf("after the resends: %v", err)
	}
	store := <-stores
	for i, p := range stale.data {
		if _, err := store.WriteAt(p, stale.offs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ckptReadBack(cli, 4, 512, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatalf("after the dead connection's writes landed late: %v", err)
	}
	stale.done()
	stale.done = func() {}
	for deadline := time.Now().Add(10 * time.Second); chunkMappings(t) != before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d chunk mappings after the streams closed, want %d", chunkMappings(t), before)
		}
	}
}

// TestRetiredRunPoison: a run of a connection since cut is poisoned at its
// release under pooldebug when only reads named it, so that a reader past
// the release fails byte identity, and is left as it is when a write named
// it, since the dead connection's request may still store from it.
func TestRetiredRunPoison(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli, err := server.Dial(srv.Addr(), server.ClientConfig{Tenant: "a", ReconnectPause: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	f, err := cli.Factory()("poison")
	if err != nil {
		t.Fatal(err)
	}
	src := f.(pfs.BufferSource)
	// last keeps the retired mapping mapped while the other two are looked
	// at after their release.
	read, wrote, last := src.Buffer(mib), src.Buffer(mib), src.Buffer(mib)
	for i := range wrote {
		wrote[i] = byte(i % 251)
	}
	want := bytes.Clone(wrote)
	if _, err := f.WriteAt(wrote, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(read, 0); err != nil || !bytes.Equal(read, want) {
		t.Fatalf("read back into a run: %v", err)
	}
	srv.KillConnections()
	if _, _, err := cli.Usage(); err != nil { // over the new connection
		t.Fatal(err)
	}
	src.Release(read)
	src.Release(wrote)
	if poisoned := bytes.Count(read, []byte{0xDB}) == len(read); poisoned != bufpool.Debug {
		t.Errorf("a retired read run poisoned at release: %v, want %v", poisoned, bufpool.Debug)
	}
	if !bytes.Equal(wrote, want) {
		t.Errorf("a retired run a write named changed at its release")
	}
	src.Release(last)
}

// TestSameHostWriteCopiesNothing is the daemon benchmark's write at the
// daemon's default geometry — four ranks, 2048 Segments of 100 particles, the
// parallel strategy — over the same-host socket: each rank's 2.9 MB arena is
// encoded into a run of three chunks of the connection's sixteen, and its
// WriteAt names them chunk by chunk. The client copies into chunks the file
// header and each rank's front-matter append (node 0's record header and
// descriptor, and every rank's slice of the size table), and no byte of the
// ~11.6 MB of data; no arena falls back to a pooled buffer.
func TestSameHostWriteCopiesNothing(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli := dial(t, srv, "a")
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	held := 0
	if err := ckptWrite(cli, 4, 2048, scf.DefaultParticles, 1, func(n *machine.Node, _ int) error {
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		if n.Rank() == 0 {
			_, _, _, held, _ = cli.ChunkCounts()
		}
		return n.Comm().Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	_, copiedIn, pooled, after, granted := cli.ChunkCounts()
	front := frontMatter(t, cli, 1)
	t.Logf("%d chunks granted, %d runs held by the arenas, %d bytes copied into chunks", granted, held, copiedIn)
	if granted != 16 || held != 4 || after != 0 {
		t.Errorf("%d chunks granted, %d runs held by the arenas and %d after Close; want 16, 4 and 0", granted, held, after)
	}
	if copiedIn != front || pooled != 0 {
		t.Errorf("the client copied %d bytes into chunks and %d arenas drew a pooled buffer; want the front matter's %d and 0",
			copiedIn, pooled, front)
	}
	if err := ckptReadBack(cli, 4, 2048, scf.DefaultParticles, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOneChunkRunNeverPooled: a share of at most a chunk is held in a run of
// one chunk, whose capacity — a MiB — is a pool class. Released at Close, it
// goes back to the client, not the pool: no later pool draw of that class
// hands out a chunk. The write half: arenas of runs of exactly 1, 2 and 4
// chunks, all pool classes, written; one that outgrows its run; one left
// unwritten at Close; and one whose first element outgrows every pool class.
// Each run goes back to the client, and no pool draw of the three classes
// hands out a chunk.
func TestOneChunkRunNeverPooled(t *testing.T) {
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	cli := dial(t, srv, "a")
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	for range 3 {
		if err := ckptRead(cli, 4, 256, scf.DefaultParticles, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	copied, _, pooled, _, _ := cli.ChunkCounts()
	if front := 3 * frontMatter(t, cli, 2); copied != front || pooled != 0 {
		t.Fatalf("the client copied %d bytes out of chunks and %d buffers were pooled; want the front matter's %d and 0",
			copied, pooled, front)
	}

	// Four ranks' arenas of 64, 256 and 640 Segments: 0.4, 1.4 and 3.6 MB,
	// runs of 1, 2 and 4 chunks — the last takes all sixteen.
	runs := 0
	for _, segs := range []int{256, 1024, 2560} {
		if err := ckptWrite(cli, 4, segs, scf.DefaultParticles, 1, func(n *machine.Node, _ int) error {
			if err := n.Comm().Barrier(); err != nil {
				return err
			}
			if n.Rank() == 0 {
				_, _, _, held, _ := cli.ChunkCounts()
				runs += held
			}
			return n.Comm().Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 12 {
		t.Fatalf("%d runs held by the three writes' arenas, want 12", runs)
	}
	// An arena sized from a one-particle first element outgrows its run of
	// one chunk into a pooled buffer, whose 1.4 MB are then copied into
	// chunks as they are written; and an insert never written.
	_, before, _, _, _ := cli.ChunkCounts()
	if err := ckptRun(cli, 4, 1024, scf.DefaultParticles, func(n *machine.Node, d *distr.Distribution, src *collection.Collection[scf.Segment], _ func(int)) error {
		for l := range src.Local() {
			particles := scf.DefaultParticles
			if l == 0 {
				particles = 1
			}
			src.At(l).Fill(src.GlobalIndexOf(l), particles)
		}
		out, err := dstream.Open(n, d, "ckpt", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		if err := dstream.Insert(out, src); err != nil {
			return err
		}
		if err := out.Write(); err != nil {
			return err
		}
		if err := dstream.Insert(out, src); err != nil {
			return err
		}
		if err := out.Close(); !errors.Is(err, dstream.ErrOrder) {
			return fmt.Errorf("close with an unwritten insert: %v, want ErrOrder", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, after, pooled, held, _ := cli.ChunkCounts(); after-before < 4*mib || pooled != 0 || held != 0 {
		t.Fatalf("%d bytes copied into chunks by the outgrown arenas' writes, %d arenas found no run, %d runs still held "+
			"after the streams closed; want over 4 MiB, 0 and 0", after-before, pooled, held)
	}
	// One element a rank, each past the pool's largest class and so beyond
	// any estimate: an arena draws a run that holds it (five chunks) or,
	// with none that long free, stays pooled, and every element reads back.
	bigElem := func(g int) []byte { return bytes.Repeat([]byte{byte(g + 1)}, bufpool.MaxClass+1) }
	if err := ckptRun(cli, 4, 4, 1, func(n *machine.Node, d *distr.Distribution, _ *collection.Collection[scf.Segment], _ func(int)) error {
		out, err := dstream.Open(n, d, "big", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		if err := out.InsertFunc(func(l int, e *dstream.Encoder) { e.Raw(bigElem(d.GlobalIndex(n.Rank(), l))) }); err != nil {
			return err
		}
		if err := out.Write(); err != nil {
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		in, err := dstream.OpenInput(n, d, "big", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.UnsortedRead(); err != nil {
			return err
		}
		same := true
		if err := in.ExtractFunc(func(l int, dec *dstream.Decoder) {
			same = same && bytes.Equal(dec.Raw(bufpool.MaxClass+1), bigElem(d.GlobalIndex(n.Rank(), l)))
		}); err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("rank %d read back other bytes", n.Rank())
		}
		return in.Close()
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, held, _ := cli.ChunkCounts(); held != 0 {
		t.Fatalf("%d runs still held after the streams of one large element closed", held)
	}
	var got [][]byte
	defer func() {
		for _, b := range got {
			bufpool.Put(b)
		}
	}()
	for _, class := range []int{mib, 2 * mib, 4 * mib} {
		for range 16 {
			b := bufpool.Get(class)
			got = append(got, b)
			if cli.Mapped(b) {
				t.Fatalf("the pool handed out a shared chunk as a buffer of %d MiB", class/mib)
			}
		}
	}
}

// TestNoFreeRunReadsThroughThePool: with fewer chunks free than the ranks'
// shares need, the ranks that find no run read into pooled buffers, byte
// identical; a TCP session and a v1 daemon's never hold a run at all.
func TestNoFreeRunReadsThroughThePool(t *testing.T) {
	// One I/O rank: four chunks, so two of the four ranks' two-chunk shares.
	srv := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}, StripeFactor: 1})
	cli := dial(t, srv, "a")
	if cli.Network() != "unix" {
		t.Skip("no same-host socket")
	}
	if err := ckptWrite(cli, 4, 1024, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatal(err)
	}
	_, _, wrote, _, _ := cli.ChunkCounts()
	if err := ckptReadBack(cli, 4, 1024, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatal(err)
	}
	// The first record's first two draws take the four chunks and the other
	// two ranks read into pooled buffers, which they keep. The second
	// record's two draws race those ranks' transfers, which may take a chunk
	// the runs gave back, so they find a run or not (3 pooled reads in 16
	// to 18 of 20 runs under -race). Each record's arenas are drawn before
	// any rank's first transfer of it, which waits for every rank at the
	// size agreement: two runs, two pooled arenas.
	_, _, pooled, held, granted := cli.ChunkCounts()
	t.Logf("%d arenas and %d reads drew a pooled buffer", wrote, pooled-wrote)
	if read := pooled - wrote; granted != 4 || wrote != 4 || read < 2 || read > 4 || held != 0 {
		t.Errorf("%d chunks granted, %d arenas and %d reads drew a pooled buffer, %d runs held after; want 4, 4, 2 to 4 and 0",
			granted, wrote, read, held)
	}

	tcp := startDaemon(t, server.Config{Tenants: []server.Tenant{{Name: "a"}}})
	rl := startRelay(t, tcp.Addr())
	over, err := server.Dial(rl.addr(), server.ClientConfig{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if err := ckptRead(over, 4, 256, scf.DefaultParticles, 1, nil); err != nil {
		t.Fatal(err)
	}
	if b := over.Buffer(mib); b != nil || over.Network() != "tcp" {
		t.Fatalf("a %s session handed out a read buffer", over.Network())
	}
}
