//go:build linux

package server_test

import (
	"bufio"
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
// decoders read them in place, with no client copy between. These tests pin
// that the run is held, and released, as a buffer of the stream's own.

// ckptRead writes records of segs Segments of particles each from nprocs
// ranks through cli, with the parallel strategy and a cyclic layout, then
// reads them back on the same layout. mid runs on every rank between each
// Read and its Extract (nil for none); every Segment must come back equal.
func ckptRead(cli *server.Client, nprocs, segs, particles, records int, mid func(n *machine.Node, rec int) error) error {
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
		fill := func(rec int) {
			for l := range src.Local() {
				src.At(l).Fill(rec*segs+src.GlobalIndexOf(l), particles)
			}
		}
		out, err := dstream.Open(n, d, "ckpt", dstream.WithStrategy(dstream.StrategyParallel))
		if err != nil {
			return err
		}
		for rec := range records {
			fill(rec)
			if err := dstream.Insert(out, src); err != nil {
				return err
			}
			if err := out.Write(); err != nil {
				return err
			}
		}
		if err := out.Close(); err != nil {
			return err
		}
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
	return err
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
			_, _, held, _ = cli.ChunkCounts()
		}
		return n.Comm().Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	copied, pooled, after, granted := cli.ChunkCounts()
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
			if _, _, held, _ := cli.ChunkCounts(); held != 4 {
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
	if _, _, held, _ := cli.ChunkCounts(); held != 0 {
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

// TestOneChunkRunNeverPooled: a share of at most a chunk is held in a run of
// one chunk, whose capacity — a MiB — is a pool class. Released at Close, it
// goes back to the client, not the pool: no later pool draw of that class
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
	copied, pooled, _, _ := cli.ChunkCounts()
	if front := 3 * frontMatter(t, cli, 2); copied != front || pooled != 0 {
		t.Fatalf("the client copied %d bytes out of chunks and %d reads drew a pooled buffer; want the front matter's %d and 0",
			copied, pooled, front)
	}
	var got [][]byte
	defer func() {
		for _, b := range got {
			bufpool.Put(b)
		}
	}()
	for range 16 {
		b := bufpool.Get(mib)
		got = append(got, b)
		if cli.Mapped(b) {
			t.Fatal("the pool handed out a shared chunk")
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
	if err := ckptRead(cli, 4, 1024, scf.DefaultParticles, 2, nil); err != nil {
		t.Fatal(err)
	}
	// The first record's first two draws take the four chunks and the other
	// two ranks read into pooled buffers, which they keep. The second
	// record's two draws race those ranks' transfers, which may take a chunk
	// the runs gave back, so they find a run or not.
	if _, pooled, held, granted := cli.ChunkCounts(); granted != 4 || pooled < 2 || pooled > 4 || held != 0 {
		t.Errorf("%d chunks granted, %d reads drew a pooled buffer, %d runs held after; want 4, 2 to 4 and 0", granted, pooled, held)
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
