package main

import (
	"fmt"
	"os"
	"time"

	"pcxxstreams"
	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
)

// A rung times one layer alone, through that layer's public functions, with
// a fixed amount of work: the end-to-end figure of a workload should move
// when the rung under its dominant layer does. Every count below is sized to
// take about a tenth of a second on the reference box.

const rungTag uint64 = 0xBE7C4

// timeRanks runs body on an n-rank machine and returns the wall seconds
// between the moment every rank was ready and the moment the last one was
// done (machine start-up is a rung of its own).
func timeRanks(n int, transport machine.TransportKind, fs *pfs.FileSystem, body func(*machine.Node) error) (float64, error) {
	bar := newBarrier(n)
	var start, end time.Time
	_, err := machine.Run(machine.Config{NProcs: n, Profile: pcxxstreams.Paragon(), Transport: transport, FS: fs},
		func(node *machine.Node) (err error) {
			ok := false
			defer func() {
				if !ok {
					bar.abort()
				}
			}()
			if !bar.wait(func() { start = time.Now() }) {
				return errAborted
			}
			if err := body(node); err != nil {
				return err
			}
			if !bar.wait(func() { end = time.Now() }) {
				return errAborted
			}
			ok = true
			return nil
		})
	return end.Sub(start).Seconds(), err
}

// pingPong bounces size-byte messages between two ranks, rounds times each
// way, and returns seconds per one-way message.
func pingPong(transport machine.TransportKind, size, rounds int) (float64, error) {
	secs, err := timeRanks(2, transport, nil, func(n *machine.Node) error {
		ep := n.Comm().Endpoint()
		peer := 1 - n.Rank()
		payload := make([]byte, size)
		for i := 0; i < rounds; i++ {
			if n.Rank() == 0 {
				if err := ep.Send(peer, rungTag, payload); err != nil {
					return err
				}
			}
			d, err := ep.Recv(peer, rungTag)
			if err != nil {
				return err
			}
			bufpool.Put(d)
			if n.Rank() == 1 {
				if err := ep.Send(peer, rungTag, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return secs / float64(2*rounds), err
}

// collectiveRung times rounds calls of one collective on the 4-rank machine.
func collectiveRung(rounds int, call func(c *collective.Comm, buf []byte) error) (float64, error) {
	return timeRanks(nprocs, machine.TransportChan, nil, func(n *machine.Node) error {
		buf := make([]byte, 1<<20)
		for i := 0; i < rounds; i++ {
			if err := call(n.Comm(), buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// pfsRung appends rounds × 2 MiB from each of 4 ranks and reads them back,
// returning MB/s for each direction.
func pfsRung(factory pfs.BackendFactory, rounds int) (appendMBps, readMBps float64, err error) {
	const block = 2 << 20
	fs := pfs.NewFileSystem(pcxxstreams.Paragon(), factory)
	defer fs.Close()
	total := float64(rounds) * nprocs * block / 1e6
	secs, err := timeRanks(nprocs, machine.TransportChan, fs, func(n *machine.Node) error {
		f, err := n.Open("rung", true)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, block)
		for i := 0; i < rounds; i++ {
			if _, err := f.ParallelAppend(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	appendMBps = total / secs
	secs, err = timeRanks(nprocs, machine.TransportChan, fs, func(n *machine.Node) error {
		f, err := n.Open("rung", false)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, block)
		for i := 0; i < rounds; i++ {
			off := int64(i*nprocs+n.Rank()) * block
			if _, err := f.ParallelReadInto(pfs.Range{Off: off, Len: block}, buf); err != nil {
				return err
			}
		}
		return nil
	})
	return appendMBps, total / secs, err
}

// serverRungs times one client against a loopback daemon: an empty round
// trip, then 1 MiB writes and reads.
func serverRungs(out map[string]float64, shrink int) error {
	d, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "rung"}}})
	if err != nil {
		return err
	}
	defer d.Close()
	cli, err := server.Dial(d.Addr(), server.ClientConfig{Tenant: "rung"})
	if err != nil {
		return err
	}
	defer cli.Close()
	b, err := cli.OpenBackend("rung")
	if err != nil {
		return err
	}
	const block = 1 << 20
	rtts, blocks := max(2000/shrink, 1), max(64/shrink, 1)
	buf := make([]byte, block)
	if _, err := b.WriteAt(buf, 0); err != nil {
		return err
	}
	t := time.Now()
	for i := 0; i < rtts; i++ {
		b.Size()
	}
	out["server.rtt_us"] = time.Since(t).Seconds() * 1e6 / float64(rtts)
	t = time.Now()
	for i := 0; i < blocks; i++ {
		if _, err := b.WriteAt(buf, int64(i)*block); err != nil {
			return err
		}
	}
	out["server.write_MBps"] = float64(blocks) * block / 1e6 / time.Since(t).Seconds()
	t = time.Now()
	for i := 0; i < blocks; i++ {
		if _, err := b.ReadAt(buf, int64(i)*block); err != nil {
			return err
		}
	}
	out["server.read_MBps"] = float64(blocks) * block / 1e6 / time.Since(t).Seconds()
	return nil
}

// sink keeps the compiler from dropping a rung's work.
var sink int

// encRungs times the encoder and decoder on one element of each workload
// type.
func encRungs(out map[string]float64, shrink int) {
	r := rng(1)
	var seg scf.Segment
	seg.Fill(1, scf.DefaultParticles)
	small := smallOps.gen(&r)
	small.Tags = []int64{1, 2}

	var e pcxxstreams.Encoder
	segRounds, smallRounds := max(20000/shrink, 1), max(2000000/shrink, 1)
	t := time.Now()
	for i := 0; i < segRounds; i++ {
		e.Reset()
		seg.StreamInsert(&e)
	}
	secs := time.Since(t).Seconds()
	segBytes := float64(e.Len())
	out["enc.encode_MBps"] = float64(segRounds) * segBytes / 1e6 / secs

	var d pcxxstreams.Decoder
	var back scf.Segment
	t = time.Now()
	for i := 0; i < segRounds; i++ {
		d.Reset(e.Bytes())
		back.StreamExtract(&d)
	}
	out["enc.decode_MBps"] = float64(segRounds) * segBytes / 1e6 / time.Since(t).Seconds()
	sink += len(back.X)

	t = time.Now()
	for i := 0; i < smallRounds; i++ {
		e.Reset()
		small.StreamInsert(&e)
	}
	out["enc.encode_small_ns"] = time.Since(t).Seconds() * 1e9 / float64(smallRounds)
	var sback smallElem
	t = time.Now()
	for i := 0; i < smallRounds; i++ {
		d.Reset(e.Bytes())
		sback.StreamExtract(&d)
	}
	out["enc.decode_small_ns"] = time.Since(t).Seconds() * 1e9 / float64(smallRounds)
	sink += len(sback.Tags)
}

// serialRung runs ckpt_large's data through plain streams on one rank: the
// baseline the 4-rank figures are a speed-up over.
func serialRung(seed uint64, elems, rounds int, out map[string]float64) error {
	dir, err := os.MkdirTemp("", "pcxxbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs := pfs.NewFileSystem(pcxxstreams.Paragon(), pcxxstreams.OSFactory(dir))
	defer fs.Close()
	r := rng(seed*0x9E3779B97F4A7C15 + 1)
	all := make([]scf.Segment, elems)
	var payload int64
	for i := range all {
		all[i] = segmentOps.gen(&r)
		payload += segmentOps.payload(&all[i])
	}
	var wr, rd []float64
	_, err = machine.Run(machine.Config{NProcs: 1, Profile: pcxxstreams.Paragon(), FS: fs}, func(n *machine.Node) error {
		d, err := pcxxstreams.NewDistribution(len(all), 1, pcxxstreams.Cyclic, 0)
		if err != nil {
			return err
		}
		src, err := pcxxstreams.NewCollection[scf.Segment](n, d)
		if err != nil {
			return err
		}
		back, err := pcxxstreams.NewCollection[scf.Segment](n, d)
		if err != nil {
			return err
		}
		copy(src.Local(), all)
		for i := 0; i < rounds; i++ {
			t := time.Now()
			s, err := pcxxstreams.Open(n, d, "serial")
			if err != nil {
				return err
			}
			if err := pcxxstreams.Insert[scf.Segment](s, src); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			if err := s.Close(); err != nil {
				return err
			}
			wr = append(wr, time.Since(t).Seconds()*1e3)
			t = time.Now()
			in, err := pcxxstreams.OpenInput(n, d, "serial")
			if err != nil {
				return err
			}
			if err := in.Read(); err != nil {
				return err
			}
			if err := pcxxstreams.Extract[scf.Segment](in, back); err != nil {
				return err
			}
			if err := in.Close(); err != nil {
				return err
			}
			rd = append(rd, time.Since(t).Seconds()*1e3)
		}
		if !back.Local()[len(all)-1].Equal(&all[len(all)-1]) {
			return fmt.Errorf("serial rung read back the wrong data")
		}
		return nil
	})
	out["machine.p1_write_MBps"] = mbps(payload, median(wr))
	out["machine.p1_read_MBps"] = mbps(payload, median(rd))
	return err
}

// rungRepeats is how many times every rung runs; its median is reported.
const rungRepeats = 3

// runRungs times every layer alone. shrink divides every count (tests).
func runRungs(seed uint64, shrink int) (map[string]float64, error) {
	all := map[string][]float64{}
	for i := 0; i < rungRepeats; i++ {
		once, err := runRungsOnce(seed, shrink)
		if err != nil {
			return nil, err
		}
		for k, v := range once {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, v := range all {
		out[k] = median(v)
	}
	return out, nil
}

func runRungsOnce(seed uint64, shrink int) (map[string]float64, error) {
	out := map[string]float64{}
	n := func(count int) int { return max(count/shrink, 1) }

	for _, tr := range []struct {
		name string
		kind machine.TransportKind
	}{{"ring", machine.TransportChan}, {"tcp", machine.TransportTCP}} {
		s, err := pingPong(tr.kind, 256, n(10000))
		if err != nil {
			return nil, err
		}
		out["comm."+tr.name+"_msg_us"] = s * 1e6
		if s, err = pingPong(tr.kind, 1<<20, n(100)); err != nil {
			return nil, err
		}
		out["comm."+tr.name+"_bulk_MBps"] = (1 << 20) / 1e6 / s
	}

	const mib = float64(1<<20) / 1e6
	for _, c := range []struct {
		name   string
		rounds int
		scale  float64 // per-call seconds → the reported unit
		call   func(c *collective.Comm, buf []byte) error
	}{
		{"collective.barrier_us", 5000, 0, func(c *collective.Comm, _ []byte) error { return c.Barrier() }},
		{"collective.allreduce_us", 5000, 0, func(c *collective.Comm, _ []byte) error {
			_, err := c.Allreduce(1, collective.OpSum)
			return err
		}},
		// MB/s counts the bytes that leave a rank: root's 1 MiB to each of 3
		// peers, 3 peers' 1 MiB to root, 1 MiB for each of 12 pairs.
		{"collective.bcast_MBps", 50, 3 * mib, func(c *collective.Comm, buf []byte) error {
			var data []byte
			if c.Rank() == 0 {
				data = buf
			}
			d, err := c.Bcast(0, data)
			if c.Rank() != 0 {
				bufpool.Put(d)
			}
			return err
		}},
		{"collective.gather_MBps", 50, 3 * mib, func(c *collective.Comm, buf []byte) error {
			parts, err := c.Gather(0, buf)
			for r, p := range parts {
				if r != 0 {
					bufpool.Put(p)
				}
			}
			return err
		}},
		{"collective.alltoallv_MBps", 20, 12 * mib, func(c *collective.Comm, buf []byte) error {
			parts, err := c.Alltoallv([][]byte{buf, buf, buf, buf})
			for _, p := range parts {
				bufpool.Put(p)
			}
			return err
		}},
	} {
		rounds := n(c.rounds)
		secs, err := collectiveRung(rounds, c.call)
		if err != nil {
			return nil, err
		}
		if c.scale == 0 {
			out[c.name] = secs * 1e6 / float64(rounds)
		} else {
			out[c.name] = c.scale * float64(rounds) / secs
		}
	}

	dir, err := os.MkdirTemp("", "pcxxbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, p := range []struct {
		name    string
		factory pfs.BackendFactory
	}{
		{"mem", pfs.MemFactory()},
		{"striped", pfs.StripedMemFactory(4, 64<<10)},
		{"os", pfs.OSFactory(dir)},
	} {
		a, r, err := pfsRung(p.factory, n(8))
		if err != nil {
			return nil, err
		}
		out["pfs."+p.name+"_append_MBps"], out["pfs."+p.name+"_read_MBps"] = a, r
	}

	if err := serverRungs(out, shrink); err != nil {
		return nil, err
	}
	encRungs(out, shrink)

	getputs := n(2000000)
	t := time.Now()
	for i := 0; i < getputs; i++ {
		bufpool.Put(bufpool.Get(64 << 10))
	}
	out["bufpool.getput_ns"] = time.Since(t).Seconds() * 1e9 / float64(getputs)

	runs := n(200)
	t = time.Now()
	for i := 0; i < runs; i++ {
		if _, err := machine.Run(machine.Config{NProcs: nprocs, Profile: pcxxstreams.Paragon()},
			func(*machine.Node) error { return nil }); err != nil {
			return nil, err
		}
	}
	out["machine.run_ms"] = time.Since(t).Seconds() * 1e3 / float64(runs)

	if err := serialRung(seed, n(ckptLarge.elems), n(5), out); err != nil {
		return nil, err
	}
	return out, nil
}
