package bench

// The allocation benchmark: steady-state allocations per operation on the
// hot paths the buffer-pool layer exists for — the enc round trip, the
// in-process message path, the funnel and two-phase record flushes, and a
// 1 MiB chunk through the dstreamd daemon.
// Unlike the virtual-time tables, these numbers measure the *real* machine:
// the Go allocator traffic per operation, the quantity that turns into GC
// pressure when a d/stream program scales up. `dstream-bench -alloc` prints
// the table, `-alloc-json` emits it for CI, and `-alloc-check` diffs a fresh
// measurement against the committed BENCH_alloc_baseline.json, failing on
// >10% regression — the gate that keeps the hot path allocation-free.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
	"pcxxstreams/internal/vtime"
)

// AllocCell is one row of the allocation table.
type AllocCell struct {
	Name        string  `json:"name"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// AllocTable measures every allocation benchmark and returns the table.
func AllocTable() ([]AllocCell, error) {
	cells := []AllocCell{
		benchToCell("enc_roundtrip", benchEncRoundTrip),
		benchToCell("comm_inproc_sendrecv", benchInprocSendRecv),
		benchToCell("comm_ring_raw_sendrecv", benchRingSendRecv(256)),
		benchToCell("comm_ring_bulk_sendrecv", benchRingSendRecv(8<<10)),
	}
	machineCells := []struct {
		name    string
		measure func() (allocs, bytes float64, err error)
	}{
		{"dstream_funnel_write", func() (float64, float64, error) { return writeCycleAllocs(vtime.Paragon(), dstream.StrategyFunnel) }},
		{"dstream_twophase_write", func() (float64, float64, error) {
			return writeCycleAllocs(vtime.Paragon(), dstream.StrategyTwoPhase)
		}},
		// Full-auto: the cost-model planner picks the strategy per record.
		// Its bookkeeping must ride the cycle allocation-free.
		{"dstream_auto_write", func() (float64, float64, error) { return writeCycleAllocs(vtime.Paragon(), dstream.StrategyAuto) }},
		{"dstream_parallel_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyParallel, 0, distr.Cyclic, rawElems(allocElems))
		}},
		{"dstream_readahead_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyParallel, 2, distr.Cyclic, rawElems(allocElems))
		}},
		// Full-auto: the planner owns both the strategy and the prefetch
		// depth, so this cell covers the planner-driven pipeline.
		{"dstream_auto_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyAuto, 0, distr.Cyclic, rawElems(allocElems))
		}},
		// The cells above reopen with the writer's layout; this one reads the
		// CYCLIC file into BLOCK, so every record is redistributed.
		{"dstream_redist_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyParallel, 0, distr.Block, rawElems(allocElems))
		}},
		// The restart's shape: the same CYCLIC → BLOCK read two-phase, two
		// records ahead — aggregators read their extents into shares and into
		// the slivers the scatter hands over, then every record is
		// redistributed.
		{"dstream_twophase_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyTwoPhase, 2, distr.Block, rawElems(allocElems))
		}},
		// Many tiny elements, each with a short []int64, read back in the
		// writer's layout: what a record costs per element — the front matter
		// every rank works through and the slices an extractor keeps — with
		// hardly a byte to move.
		{"dstream_small_read", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyParallel, 0, distr.Cyclic, smallElems)
		}},
		// Segments read back into the same elements every cycle: the
		// extractor refills their slices, so a cycle costs what
		// dstream_parallel_read's does, not a record's payload.
		{"dstream_segment_reread", func() (float64, float64, error) {
			return readCycleAllocs(dstream.StrategyParallel, 0, distr.Cyclic, segmentElems(allocElems))
		}},
		{"dstream_chan_send", func() (float64, float64, error) { return channelCycleAllocs(allocElemSize, false, false) }},
		{"dstream_chan_recv", func() (float64, float64, error) { return channelCycleAllocs(allocElemSize, false, true) }},
		// A channel opened for one record of 1 MiB per destination and closed
		// again: what an open costs beyond the records it carries.
		{"dstream_chan_open_write", func() (float64, float64, error) { return channelCycleAllocs(64<<10, true, false) }},
		// The daemon's data path borrows the caller's buffer on the client and
		// a pooled one on the server; a copy regrown on either side shows here
		// as a megabyte per op.
		{"daemon_write_1MiB", func() (float64, float64, error) { return daemonChunkAllocs(false) }},
		{"daemon_read_1MiB", func() (float64, float64, error) { return daemonChunkAllocs(true) }},
	}
	for _, c := range machineCells {
		allocs, bytes, err := c.measure()
		if err != nil {
			return nil, fmt.Errorf("bench: %s alloc cycle: %w", c.name, err)
		}
		cells = append(cells, AllocCell{Name: c.name, AllocsPerOp: allocs, BytesPerOp: bytes})
	}
	return cells, nil
}

func benchToCell(name string, f func(b *testing.B)) AllocCell {
	r := testing.Benchmark(f)
	return AllocCell{
		Name:        name,
		AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
		BytesPerOp:  float64(r.MemBytes) / float64(r.N),
	}
}

// benchEncRoundTrip is the steady-state typed encode/decode round trip: a
// reused enc.Buffer filled with a mixed-type element payload, decoded back
// with a reused enc.Reader.
func benchEncRoundTrip(b *testing.B) {
	var e enc.Buffer
	var d enc.Reader
	raw := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Uint32(uint32(i))
		e.Int64(int64(i) * 3)
		e.Float64(float64(i) * 0.5)
		e.Bool(i&1 == 0)
		e.Raw(raw)
		d.Reset(e.Bytes())
		_ = d.Uint32()
		_ = d.Int64()
		_ = d.Float64()
		_ = d.Bool()
		_ = d.Raw(32)
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// benchInprocSendRecv is one 1 KiB message over the in-process transport:
// Endpoint.Send on rank 0, Endpoint.Recv on rank 1, receiver releasing the
// payload back to the pool — the per-message steady state of every
// collective operation and every funnel gather.
func benchInprocSendRecv(b *testing.B) {
	tr := comm.NewChanTransport(2)
	defer tr.Close()
	var c0, c1 vtime.Clock
	prof := vtime.Paragon()
	ep0 := comm.NewEndpoint(0, 2, tr, &c0, prof)
	ep1 := comm.NewEndpoint(1, 2, tr, &c1, prof)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep0.Send(1, 42, payload); err != nil {
			b.Fatal(err)
		}
		d, err := ep1.Recv(0, 42)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(d)
	}
}

// benchRingSendRecv is the raw transport round trip the lock-free mailbox
// ring serves: one message of the given size enqueued on the ring fast path
// and drained by the receiver's poll, payload recycled through the pool. No
// endpoint sequencing — this pins the allocation cost of the ring itself (slot
// CAS, stage, match) at zero steady state beyond the pooled payload copy. The
// table runs it in both size classes: 256 bytes is eager, and 8 KiB is
// rendezvous, the band whose full-ring behavior is blocking backpressure
// rather than an eager spill — drained every message, the ring never fills,
// so that cell pins the bulk fast path (pool get/copy/put of a large class
// plus the ring hand-off).
func benchRingSendRecv(size int) func(b *testing.B) {
	return func(b *testing.B) {
		tr := comm.NewChanTransport(2)
		defer tr.Close()
		payload := make([]byte, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Send(comm.Message{From: 0, To: 1, Tag: 7, Data: payload}); err != nil {
				b.Fatal(err)
			}
			m, err := tr.Recv(1, 0, 7)
			if err != nil {
				b.Fatal(err)
			}
			bufpool.Put(m.Data)
		}
	}
}

// allocCycleParams shapes the machine-level cycles: a 4-node machine, 64
// cyclic elements of 64 payload bytes, one insert per write.
const (
	allocNProcs   = 4
	allocElems    = 64
	allocElemSize = 64
	allocWarmup   = 8
	allocCycles   = 64
	// allocWindows is how many windows the channel and daemon cells measure,
	// keeping the lowest: both have goroutines whose work is not in step
	// with the measured cycle.
	allocWindows = 3
)

// allocCell is the machine of the stream cycles: allocNProcs nodes on a store
// striped as wide.
func allocCell(prof vtime.Profile) Run {
	return Run{Profile: prof, NProcs: allocNProcs, StripeFactor: allocNProcs, StripeUnit: 1 << 14}
}

// measureCycles is the measured part of every machine-level cell, run by all
// ranks together: allocWarmup calls of cycle, then `windows` windows of
// allocCycles calls each, with all ranks idle and the collector off while
// rank 0 reads the heap counters around each window. Rank 0 stores in
// *allocs and *bytes the lowest allocations and the lowest bytes per call
// that any window saw. The Go heap counters are global, so a call's cost
// includes every rank's work — the number a training loop would feel.
func measureCycles(n *machine.Node, windows int, cycle func() error, allocs, bytes *float64) error {
	for i := 0; i < allocWarmup; i++ {
		if err := cycle(); err != nil {
			return err
		}
	}
	for w := 0; w < windows; w++ {
		// Quiesce: all ranks idle while rank 0 snapshots the heap counters.
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		var before runtime.MemStats
		var gcPct int
		if n.Rank() == 0 {
			gcPct = debug.SetGCPercent(-1) // no GC inside the window
			runtime.ReadMemStats(&before)
		}
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		for i := 0; i < allocCycles; i++ {
			if err := cycle(); err != nil {
				return err
			}
		}
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		if n.Rank() == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gcPct)
			keepLowest(w, &before, &after, allocs, bytes)
		}
	}
	return nil
}

// keepLowest turns the heap counters around window w of allocCycles calls
// into allocations and bytes per call, and keeps in *allocs and *bytes the
// lowest of each that any window so far has seen.
func keepLowest(w int, before, after *runtime.MemStats, allocs, bytes *float64) {
	a := float64(after.Mallocs-before.Mallocs) / allocCycles
	b := float64(after.TotalAlloc-before.TotalAlloc) / allocCycles
	if w == 0 || a < *allocs {
		*allocs = a
	}
	if w == 0 || b < *bytes {
		*bytes = b
	}
}

// writeCycleAllocs runs a 4-node machine performing steady-state
// insert+write cycles under the given strategy and returns the whole-machine
// allocations and bytes per cycle. The planner reads its cost model from the
// platform profile, so a test can hand this a profile shaped to force a
// particular strategy pick and compare the full-auto cycle against the same
// cycle with that pick hard-coded.
func writeCycleAllocs(prof vtime.Profile, strat dstream.Strategy) (float64, float64, error) {
	var allocs, bytes float64
	cell := allocCell(prof)
	// The stripes grow geometrically as the cycles append, and a regrowth
	// would land inside the measured window or outside it by the order in
	// which the ranks reach the store. So each image is grown past what all
	// the cycles write and truncated back before the first: the stores keep
	// the capacity, and no append inside the window regrows one.
	grown := int64(4 * (allocWarmup + allocCycles) * allocElems * allocElemSize)
	store := pfs.StripedMemFactory(cell.StripeFactor, cell.StripeUnit)
	_, err := cell.on(pfs.NewFileSystem(prof, func(name string) (pfs.Backend, error) {
		b, err := store(name)
		if err == nil {
			err = b.Truncate(grown)
		}
		if err == nil {
			err = b.Truncate(0)
		}
		return b, err
	}), func(n *machine.Node) error {
		d, err := distr.New(allocElems, allocNProcs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		s, err := dstream.Open(n, d, "alloc-bench", dstream.WithStrategy(strat))
		if err != nil {
			return err
		}
		defer s.Close()
		payload := make([]byte, allocElemSize)
		cycle := func() error {
			if err := s.InsertFunc(func(l int, e *dstream.Encoder) { e.Raw(payload) }); err != nil {
				return err
			}
			return s.Write()
		}
		return measureCycles(n, 1, cycle, &allocs, &bytes)
	})
	return allocs, bytes, err
}

// cycleElems is what a read cell's records are made of: how many elements,
// and how one is inserted and extracted. extractor is called once by each
// reading rank, before its first record, for the extract of every record it
// reads: what it returns may keep that rank's elements.
type cycleElems struct {
	n         int
	insert    func(l int, e *dstream.Encoder)
	extractor func(local int) func(l int, d *dstream.Decoder)
}

// rawElems are the machine-level cells' elements: n opaque payloads of
// allocElemSize bytes, extracted as the bytes they arrived in.
func rawElems(n int) cycleElems {
	payload := make([]byte, allocElemSize)
	return cycleElems{
		n:      n,
		insert: func(l int, e *dstream.Encoder) { e.Raw(payload) },
		extractor: func(int) func(l int, d *dstream.Decoder) {
			return func(l int, d *dstream.Decoder) { d.Raw(allocElemSize) }
		},
	}
}

// segmentElems are n Segments of scf.DefaultParticles particles, each rank
// extracting every record into the same local elements with the generated
// extractor, which refills their slices in place: after the first record a
// cycle decodes 5.6 KB a segment and keeps none of it on the heap.
func segmentElems(n int) cycleElems {
	var seg scf.Segment
	seg.Fill(1, scf.DefaultParticles)
	return cycleElems{
		n:      n,
		insert: func(l int, e *dstream.Encoder) { seg.StreamInsert(e) },
		extractor: func(local int) func(l int, d *dstream.Decoder) {
			segs := make([]scf.Segment, local)
			return func(l int, d *dstream.Decoder) { segs[l].StreamExtract(d) }
		},
	}
}

// smallElems are 4096 elements of a stamp and one to four tags, 20 to 44
// encoded bytes each. A decoded slice is heap memory whether or not the
// extractor keeps it, so this one does not.
var smallElems = cycleElems{
	n: 4096,
	insert: func(l int, e *dstream.Encoder) {
		e.Int64(int64(l))
		e.Int64Slice([]int64{1, 2, 3, 4}[:1+l%4])
	},
	extractor: func(int) func(l int, d *dstream.Decoder) {
		return func(l int, d *dstream.Decoder) {
			d.Int64()
			d.Int64Slice()
		}
	},
}

// readCycleAllocs is the input-side mirror of writeCycleAllocs: the machine
// first writes allocWarmup+allocCycles CYCLIC records of the elements el
// (allocElems raw payloads in every table cell but one), then re-opens the file
// for input — in the layout rmode, so anything but CYCLIC makes every Read a
// redistributing one — and measures the steady-state read+extract cycle,
// with the prefetch pipeline off (depth 0) or on. Read-ahead recycles its
// buffers through the stream's free list, so its cycle must not out-allocate
// the synchronous path; a redistributing read holds and returns pooled
// frames, so neither must it.
func readCycleAllocs(strat dstream.Strategy, depth int, rmode distr.Mode, el cycleElems) (float64, float64, error) {
	const records = allocWarmup + allocCycles
	var allocs, bytes float64
	cell := allocCell(vtime.Paragon())
	_, err := cell.on(cell.fs(), func(n *machine.Node) error {
		d, err := distr.New(el.n, allocNProcs, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		s, err := dstream.Open(n, d, "alloc-bench-read", dstream.WithStrategy(strat))
		if err != nil {
			return err
		}
		for i := 0; i < records; i++ {
			if err := s.InsertFunc(el.insert); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		if err := s.Close(); err != nil {
			return err
		}

		opts := []dstream.Option{dstream.WithStrategy(strat)}
		if depth > 0 {
			opts = append(opts, dstream.WithReadAhead(depth))
		}
		rd, err := distr.New(el.n, allocNProcs, rmode, 0)
		if err != nil {
			return err
		}
		in, err := dstream.OpenInput(n, rd, "alloc-bench-read", opts...)
		if err != nil {
			return err
		}
		defer in.Close()
		extract := el.extractor(in.LocalLen())
		cycle := func() error {
			if err := in.Read(); err != nil {
				return err
			}
			return in.ExtractFunc(extract)
		}
		return measureCycles(n, 1, cycle, &allocs, &bytes)
	})
	return allocs, bytes, err
}

// channelCycleAllocs measures the stream-to-stream channel's steady state:
// a 4-rank machine with 2 producer and 2 consumer ranks pumping records
// through a persistent channel (block → cyclic, so every record is
// redistributed in flight), counted as whole-machine allocations per record
// hand-off like the other machine-level cells. The send cell stops the
// consumers at Read (frame arrival, validation, and retirement — the
// producer-facing steady state); the recv cell adds the full per-element
// extraction, so the pair brackets both ends of the pipeline. With reopen, a
// cycle is a whole channel — both ends open, one record, both ends close — so
// whatever an end builds per open and drops at close is counted every time:
// at elemSize 64 KiB a frame is 1 MiB per destination, and a frame buffer
// grown from nothing shows as several times that in garbage. All cells are
// the lowest of allocWindows windows: the producers' unread credit lists
// regrow at moments of their own choosing, and one window in a few carries a
// regrowth the others do not.
func channelCycleAllocs(elemSize int, reopen, extract bool) (float64, float64, error) {
	const producers, consumers = 2, 2
	var allocs, bytes float64
	cell := Run{Profile: vtime.Paragon(), NProcs: producers + consumers}
	_, err := cell.on(cell.fs(), func(n *machine.Node) error {
		dProd, err := distr.New(allocElems, producers, distr.Block, 0)
		if err != nil {
			return err
		}
		dCons, err := distr.New(allocElems, consumers, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		// An end is opened once for the whole measurement, or by every cycle.
		type end interface{ Close() error }
		var open func() (end, func() error, error)
		if n.Rank() < producers {
			payload := make([]byte, elemSize)
			open = func() (end, func() error, error) {
				s, err := dstream.OpenChannel(n, dProd, dCons, "alloc-chan")
				return s, func() error {
					if err := s.InsertFunc(func(l int, e *dstream.Encoder) { e.Raw(payload) }); err != nil {
						return err
					}
					return s.Write()
				}, err
			}
		} else {
			open = func() (end, func() error, error) {
				r, err := dstream.OpenChannelInput(n, dCons, dProd, "alloc-chan")
				return r, func() error {
					if err := r.Read(); err != nil {
						return err
					}
					if !extract {
						return nil
					}
					return r.ExtractFunc(func(l int, d *dstream.Decoder) { d.Raw(elemSize) })
				}, err
			}
		}
		cycle := func() error {
			e, record, err := open()
			if err != nil {
				return err
			}
			if err := record(); err != nil {
				e.Close()
				return err
			}
			if err := e.Close(); err != nil {
				return err
			}
			// Nothing but ring capacity stops a producer opening the next
			// channel while this one's frames sit unread, and every frame it
			// runs ahead by is a pool miss: hold the ranks in step, so the cell
			// counts what a channel costs and not how far the scheduler let one
			// end lead.
			return n.Comm().Barrier()
		}
		if !reopen {
			e, record, err := open()
			if err != nil {
				return err
			}
			defer e.Close()
			cycle = record
		}
		return measureCycles(n, allocWindows, cycle, &allocs, &bytes)
	})
	return allocs, bytes, err
}

// daemonChunkAllocs measures the daemon data path's steady state: one client
// writing (or reading) 1 MiB chunks against a loopback dstreamd at its
// default geometry, counted process-wide — the client, the connection handler
// and the I/O ranks together — per chunk, after warm-up, with the collector
// off, the lowest of allocWindows windows. What is left per chunk is the
// call, its reply channel, the frame heads on both sides and the striped
// store's fan-out.
func daemonChunkAllocs(read bool) (allocs, bytes float64, err error) {
	d, err := server.Start("127.0.0.1:0", server.Config{Tenants: []server.Tenant{{Name: "alloc"}}})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	cli, err := server.Dial(d.Addr(), server.ClientConfig{Tenant: "alloc"})
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()
	b, err := cli.OpenBackend("alloc-bench")
	if err != nil {
		return 0, 0, err
	}
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	// The same few chunks over and over, so that the store stops growing
	// with the warm-up and the reads have something to read.
	op := func(i int, read bool) error {
		off := int64(i%allocWarmup) * chunk
		if read {
			_, err := b.ReadAt(buf, off)
			return err
		}
		_, err := b.WriteAt(buf, off)
		return err
	}
	for i := 0; i < 2*allocWarmup; i++ {
		if err := op(i, read && i >= allocWarmup); err != nil {
			return 0, 0, err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for w := 0; w < allocWindows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < allocCycles; i++ {
			if err := op(i, read); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&after)
		keepLowest(w, &before, &after, &allocs, &bytes)
	}
	return allocs, bytes, nil
}

// WriteAllocTable prints the table human-readably.
func WriteAllocTable(w io.Writer, cells []AllocCell) {
	fmt.Fprintf(w, "%-28s %14s %14s\n", "benchmark", "allocs/op", "B/op")
	for _, c := range cells {
		fmt.Fprintf(w, "%-28s %14.1f %14.1f\n", c.Name, c.AllocsPerOp, c.BytesPerOp)
	}
}

// ReadAllocJSON loads a table written by `dstream-bench -sweep alloc -json`.
func ReadAllocJSON(path string) ([]AllocCell, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells []AllocCell
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return cells, nil
}

// CheckAllocRegression compares fresh cells against a baseline, failing on a
// >10% allocs/op or B/op regression (with one alloc / 64 bytes of absolute
// slack, so a zero baseline does not make every change a failure).
func CheckAllocRegression(fresh, baseline []AllocCell) error {
	base := make(map[string]AllocCell, len(baseline))
	for _, c := range baseline {
		base[c.Name] = c
	}
	var bad []string
	for _, c := range fresh {
		b, ok := base[c.Name]
		if !ok {
			continue // a new benchmark has no baseline yet
		}
		if limit := max(b.AllocsPerOp*1.10, b.AllocsPerOp+1); c.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.1f exceeds baseline %.1f (+10%%)", c.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if limit := max(b.BytesPerOp*1.10, b.BytesPerOp+64); c.BytesPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: B/op %.1f exceeds baseline %.1f (+10%%)", c.Name, c.BytesPerOp, b.BytesPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: allocation regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
