package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pcxxstreams"
	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/ckpt"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/server"
)

// nprocs is the paper's Table 1 machine; every workload runs on it. The
// sizing that keeps a per-node buffer under bufpool's 4 MiB top class
// depends on it, so it is not a flag.
const nprocs = 4

// checkStamp is what the first and the last cycle of a run stamp into every
// element instead of their cycle number, so that the two leave the same
// bytes in the file.
const checkStamp = -1

type shapeKind uint8

const (
	shapeStream shapeKind = iota // Open/Insert/Write/Close, OpenInput/Read/Extract/Close
	shapeCkpt                    // SaveCheckpoint / RestoreCheckpoint
	shapeChan                    // OpenChannel … / OpenChannelInput …
)

// spec is one workload: the collection it moves and the way it moves it.
type spec[T any] struct {
	name    string
	ops     *elemOps[T]
	elems   int // per record
	records int // per stream, or per channel open
	warmup  int // cycles run inside set-up
	shape   shapeKind
	// refMBps is how fast the reference round trip (calib.go) goes between
	// this workload's cycles on the reference box when the box is calm, in
	// encoded MB per second of round trip. It fixes the speed the time-based
	// end-to-end metrics are reported at, so it stays as it is.
	refMBps float64

	factory   func(dir string) pfs.BackendFactory // embedded storage; dir is a fresh temp directory
	onDisk    bool                                // factory needs dir
	daemon    bool                                // storage is an in-process dstreamd instead
	writeOpts []pcxxstreams.StreamOption
	readOpts  []pcxxstreams.StreamOption
	readMode  pcxxstreams.Mode // the reader's distribution; the writer's is always CYCLIC
	sorted    bool             // Read, not UnsortedRead
}

// runOpts says how long to run and what to wrap.
type runOpts struct {
	seed    uint64
	seconds float64 // measured time; the run stops at the first cycle boundary past it
	cycles  int     // when > 0, measure exactly this many cycles instead
	shrink  int     // divide element counts and warm-up by this (tests)
	tracer  *tracer
	// wrapStorage, when set, wraps the storage factory the way the tracer
	// does: the hook a test uses to corrupt what the program reads back.
	wrapStorage func(pfs.BackendFactory) pfs.BackendFactory
}

// phaseClock is one rank's view of one cycle, ns since the run's t0; a rank
// that takes no part in a phase (a channel has producers and consumers)
// leaves it at -1.
type phaseClock struct {
	cycle                      int32
	outIn, outOut, inIn, inOut int64
}

// cycleTimes is one measured cycle seen from outside: each phase runs from
// the first rank in to the last rank out.
type cycleTimes struct {
	cycle                            int32
	outStart, outEnd, inStart, inEnd int64
	cpuNs                            int64 // process CPU between the barriers around the two phases (traced runs)
	// speed is the box's speed just before the cycle, by the reference round
	// trip, as a share of the reference box's calm speed.
	speed float64
	// skewNs is the rank time inside the phases but outside any rank's own
	// first-call-to-last-call stretch: ranks that started after the first or
	// finished before the last.
	skewNs int64
}

// runResult is everything one run of a workload measured.
type runResult struct {
	setupSeconds float64
	setupSpeed   float64 // the box's median speed over the set-up's cycles (see cycleTimes.speed)
	attempted    int     // every cycle: check, warm-up, measured
	failed       int
	measured     []cycleTimes
	measuredAll  int   // measured cycles started, failed ones included
	payload      int64 // encoded element bytes per cycle, one way
	elems        int64 // elements per cycle
	mallocs      uint64
	allocBytes   uint64
	imageBytes   int64 // stored size of one cycle's file (0 for channels)
	planSigs     []uint64
	planSwitches int64
	io           pfs.IOStats
	pool         bufpool.PoolStats
	ring         comm.RingStats
	heapPeak     uint64 // highest HeapAlloc at the end of a traced cycle
	msgsSent     int64  // the machine's own account of the whole run
	bytesSent    int64
	spans        []span
}

// barrier is the benchmark's own: it keeps the ranks in step without sending
// anything through the machine under test. The last rank to arrive runs
// onLast while the others are still parked, so whatever it reads (clocks,
// allocation counts) is read with nothing else running.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
	aborted bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait returns false when a rank has failed and the run is over.
func (b *barrier) wait(onLast func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	b.arrived++
	if b.arrived == b.n {
		if onLast != nil {
			onLast()
		}
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen := b.gen; gen == b.gen && !b.aborted; {
		b.cond.Wait()
	}
	return !b.aborted
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

var errAborted = errors.New("benchmark: another rank failed")

type cycleMode uint8

const (
	modeCheck cycleMode = iota // full equality, image hash; first and last cycle
	modeWarm
	modeMeasured
	modeDone
)

// control is the state the ranks share; only a barrier's onLast writes it.
type control struct {
	o      runOpts
	warmup int
	bar    *barrier

	mode     cycleMode
	cycle    int32
	measured int
	finished bool // the closing check cycle has been handed out

	setupEnd     time.Time
	measureStart time.Time
	m0, m1       runtime.MemStats
	io           pfs.IOStats
	pool0, pool1 bufpool.PoolStats
	cpuStart     int64
	cpu          map[int32]int64
	refTrips     []time.Duration // one per cycle, by cycle number
	setupCycles  int             // how many of them set-up ran
	heapPeak     uint64
	fs           *pfs.FileSystem
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// next picks the coming cycle's mode. It runs as a barrier's onLast.
func (c *control) next() {
	tr := c.o.tracer
	switch {
	case c.finished:
		c.mode = modeDone
		return
	case c.cycle < 0:
		c.mode = modeCheck
	case int(c.cycle) < c.warmup:
		c.mode = modeWarm
	case c.measured == 0:
		c.mode = modeMeasured
		c.setupEnd, c.setupCycles = time.Now(), len(c.refTrips)
		if c.o.cycles < 0 {
			// Set-up only: one of the repeats that exist to time set-up.
			c.mode, c.finished = modeCheck, true
			break
		}
		c.fs.ResetStats()
		c.pool0 = bufpool.Stats()
		runtime.ReadMemStats(&c.m0)
		c.measureStart = time.Now()
		if tr != nil {
			tr.on.Store(true)
		}
	default:
		over := time.Since(c.measureStart).Seconds() >= c.o.seconds
		if c.o.cycles > 0 {
			over = c.measured >= c.o.cycles
		}
		if over {
			runtime.ReadMemStats(&c.m1)
			c.io, c.pool1 = c.fs.Stats(), bufpool.Stats()
			if tr != nil {
				tr.on.Store(false)
			}
			c.mode, c.finished = modeCheck, true
		}
	}
	c.cycle++
	if c.mode == modeMeasured {
		c.measured++
	}
	if tr != nil {
		tr.cycle.Store(c.cycle)
	}
}

// rankLog is what one rank writes down as it goes; merged after the run.
type rankLog struct {
	clocks []phaseClock
	failed []int32
	sigs   []uint64
	swaps  int64
	image  []uint64 // FNV-1a of the stored file at each check cycle (rank 0)
	size   int64
	_      [64]byte
}

func imageHash(fs *pfs.FileSystem, name string) (uint64, int64, error) {
	img, err := fs.Image(name)
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	h.Write(img)
	return h.Sum64(), int64(len(img)), nil
}

// elemPtr is what the façade's Insert and Extract ask of an element type.
type elemPtr[T any] interface {
	*T
	pcxxstreams.Inserter
	pcxxstreams.Extractor
}

// run builds the workload from the seed, runs it and takes it down again.
func run[T any, PT elemPtr[T]](w *spec[T], o runOpts) (res *runResult, err error) {
	t0 := time.Now()
	if o.tracer != nil {
		t0 = o.tracer.t0
	}
	setupStart := time.Now()
	if o.shrink < 1 {
		o.shrink = 1
	}
	elems, warmup := max(w.elems/o.shrink, 2*nprocs), max(w.warmup/o.shrink, 1)

	// Inputs. The program under test never sees the seed, only these.
	r := rng(o.seed*0x9E3779B97F4A7C15 + 1)
	all := make([][]T, w.records)
	var payload int64
	for rec := range all {
		all[rec] = make([]T, elems)
		for g := range all[rec] {
			all[rec][g] = w.ops.gen(&r)
			payload += w.ops.payload(&all[rec][g])
		}
	}

	// Layouts: who writes an element and who gets it back.
	wprocs, rprocs, rbase := nprocs, nprocs, 0
	if w.shape == shapeChan {
		wprocs, rprocs, rbase = nprocs/2, nprocs/2, nprocs/2
	}
	wd, err := pcxxstreams.NewDistribution(elems, wprocs, pcxxstreams.Cyclic, 0)
	if err != nil {
		return nil, err
	}
	rd, err := pcxxstreams.NewDistribution(elems, rprocs, w.readMode, 0)
	if err != nil {
		return nil, err
	}

	// The reference round trip runs over the first elements of rank 0's share.
	var refElems []T
	for rec := range all {
		for l := 0; l < wd.LocalCount(0) && len(refElems) < w.ops.refElems; l++ {
			refElems = append(refElems, all[rec][wd.GlobalIndex(0, l)])
		}
	}
	cal := newReference(w.ops, refElems, w.refMBps)
	defer cal.stop()

	// What each reading rank must get back, stamp apart. An unsorted read
	// promises no order, so its digest is a plain sum.
	ref := make([][]uint64, w.records)
	for rec := range ref {
		ref[rec] = make([]uint64, rprocs)
		for rr := 0; rr < rprocs; rr++ {
			local := make([]T, rd.LocalCount(rr))
			for l := range local {
				local[l] = all[rec][rd.GlobalIndex(rr, l)]
			}
			ref[rec][rr] = digest(w, local)
		}
	}

	// Storage and session.
	prof := pcxxstreams.Paragon()
	cfg := pcxxstreams.Config{NProcs: nprocs, Profile: prof}
	sess := pcxxstreams.LocalSession()
	var baseTransport comm.Transport // the traced run's, for its RingStats
	if o.tracer != nil {
		cfg.WrapTransport = func(t comm.Transport) comm.Transport {
			baseTransport = t
			return o.tracer.wrapTransport(t)
		}
	}
	wrap := func(f pfs.BackendFactory, base spanKind, rank int8) pfs.BackendFactory {
		if o.tracer != nil {
			f = o.tracer.wrapFactory(f, base, rank)
		}
		return f
	}
	var fs *pfs.FileSystem
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	switch {
	case w.daemon:
		dcfg := pcxxstreams.DaemonConfig{Tenants: []pcxxstreams.DaemonTenant{{Name: "bench"}}}
		if o.tracer != nil || o.wrapStorage != nil {
			// The daemon's own default, spelled out so that it can be wrapped.
			store := pfs.StripedMemFactory(4, 64<<10)
			if o.wrapStorage != nil {
				store = o.wrapStorage(store)
			}
			dcfg.Factory = wrap(store, kStoreWrite, rankServer)
		}
		d, err := pcxxstreams.StartDaemon("127.0.0.1:0", dcfg)
		if err != nil {
			return nil, err
		}
		cleanup = append(cleanup, func() { d.Close() })
		if o.tracer == nil {
			if sess, err = pcxxstreams.Connect(d.Addr(), "bench"); err != nil {
				return nil, err
			}
			cleanup = append(cleanup, func() { sess.Close() })
			fs = sess.FS(prof)
		} else {
			// Session.Run does exactly this with the client's own factory;
			// spelled out so that the client side of the wire can be wrapped.
			cli, err := server.Dial(d.Addr(), server.ClientConfig{Tenant: "bench"})
			if err != nil {
				return nil, err
			}
			cleanup = append(cleanup, func() { cli.Close() })
			fs = pfs.NewFileSystem(prof, wrap(cli.Factory(), kBackendWrite, rankShared))
			cfg.FS = fs
		}
	default:
		dir := ""
		if w.onDisk {
			if dir, err = os.MkdirTemp("", "pcxxbench-"); err != nil {
				return nil, err
			}
			cleanup = append(cleanup, func() { os.RemoveAll(dir) })
		}
		f := w.factory(dir)
		if o.wrapStorage != nil {
			f = o.wrapStorage(f)
		}
		fs = pfs.NewFileSystem(prof, wrap(f, kBackendWrite, rankShared))
		cleanup = append(cleanup, func() { fs.Close() })
		cfg.FS = fs
	}

	ctl := &control{o: o, warmup: warmup, bar: newBarrier(nprocs), cycle: -1, fs: fs, cpu: map[int32]int64{}}
	logs := make([]rankLog, nprocs)
	since := func() int64 { return int64(time.Since(t0)) }

	body := func(n *pcxxstreams.Node) (err error) {
		rank := n.Rank()
		lg := &logs[rank]
		rt := o.tracer.rank(rank)
		done := false
		defer func() {
			if !done {
				ctl.bar.abort()
			}
		}()
		writer, reader := rank < wprocs, rank >= rbase && rank < rbase+rprocs
		rrank := rank - rbase

		// This rank's share: what it inserts, and where extracts land.
		src, back := make([][]T, w.records), make([][]T, w.records)
		var srcC, backC []*pcxxstreams.Collection[T]
		for rec := range src {
			if w.shape == shapeChan {
				if writer {
					src[rec] = make([]T, wd.LocalCount(rank))
				}
				if reader {
					back[rec] = make([]T, rd.LocalCount(rrank))
				}
			} else {
				sc, err := pcxxstreams.NewCollection[T](n, wd)
				if err != nil {
					return err
				}
				bc, err := pcxxstreams.NewCollection[T](n, rd)
				if err != nil {
					return err
				}
				srcC, backC = append(srcC, sc), append(backC, bc)
				src[rec], back[rec] = sc.Local(), bc.Local()
			}
			for l := range src[rec] {
				src[rec][l] = all[rec][wd.GlobalIndex(rank, l)]
			}
		}
		var mgr *pcxxstreams.CheckpointManager
		if w.shape == shapeCkpt {
			if mgr, err = pcxxstreams.NewCheckpointManager(n, w.name, 2); err != nil {
				return err
			}
		}

		for {
			if !ctl.bar.wait(ctl.next) {
				return errAborted
			}
			mode, cycle := ctl.mode, ctl.cycle
			if mode == modeDone {
				break
			}
			stamp := int64(cycle)
			if mode == modeCheck {
				stamp = checkStamp
			}
			for rec := range src {
				for l := range src[rec] {
					w.ops.setStamp(&src[rec][l], stamp)
				}
			}
			// Inside a phase only façade calls run; what a check cycle or a
			// traced one wants beyond them is read off the streams in between.
			detail := mode == modeCheck || rt != nil
			countPlan := rt != nil && mode == modeMeasured
			clk := phaseClock{cycle: cycle, outIn: -1, outOut: -1, inIn: -1, inOut: -1}
			var cerr error // a cycle that failed without breaking the machine
			fileName := w.name
			if w.shape == shapeChan {
				// A consumer's last credits reach a producer that has closed and
				// stay in its mailbox, where a later channel of the same name
				// would take them for its own: every cycle's channel is new.
				fileName = fmt.Sprintf("%s.%d", w.name, cycle)
			}

			if !ctl.bar.wait(func() {
				ctl.refTrips = append(ctl.refTrips, cal.roundTrip())
				ctl.cpuStart = cpuNow()
			}) {
				return errAborted
			}

			// ---- output phase ----
			switch {
			case w.shape == shapeStream:
				clk.outIn = since()
				rt.begin(kOpen)
				s, err := sess.Open(n, wd, w.name, w.writeOpts...)
				rt.end()
				if err != nil {
					return err
				}
				for rec := range srcC {
					rt.begin(kInsert)
					err = pcxxstreams.Insert[T, PT](s, srcC[rec])
					rt.end()
					if err != nil {
						return err
					}
					rt.begin(kWrite)
					err = s.Write()
					rt.end()
					if err != nil {
						return err
					}
				}
				if countPlan {
					lg.swaps += s.PlanSwitches()
				}
				rt.begin(kClose)
				err = s.Close()
				rt.end()
				if err != nil {
					return err
				}
				clk.outOut = since()
			case w.shape == shapeCkpt:
				epoch := uint64(cycle) + 1
				fileName = fmt.Sprintf("%s.%d", w.name, epoch%2)
				clk.outIn = since()
				rt.begin(kSave)
				if !detail {
					err = pcxxstreams.SaveCheckpoint[T, PT](mgr, epoch, srcC[0])
				} else {
					// SaveCheckpoint's own body, opened up so that the stream
					// inside it can be timed and asked for its plan.
					err = mgr.Save(epoch, wd, func(s *dstream.OStream) error {
						rt.begin(kInsert)
						err := pcxxstreams.Insert[T, PT](s, srcC[0])
						rt.end()
						if err != nil {
							return err
						}
						rt.begin(kWrite)
						err = s.Write()
						rt.end()
						if countPlan {
							lg.swaps += s.PlanSwitches()
						}
						if mode == modeCheck {
							lg.sigs = append(lg.sigs, s.PlanSignature())
						}
						return err
					})
				}
				rt.end()
				if err != nil {
					return err
				}
				clk.outOut = since()
			case writer:
				clk.outIn = since()
				rt.begin(kChanOpen)
				s, err := sess.OpenChannel(n, wd, rd, fileName)
				rt.end()
				if err != nil {
					return err
				}
				for rec := range src {
					rt.begin(kChanInsert)
					err = pcxxstreams.InsertElems[T, PT](s, src[rec])
					rt.end()
					if err != nil {
						return err
					}
					rt.begin(kChanWrite)
					err = s.Write()
					rt.end()
					if err != nil {
						return err
					}
				}
				rt.begin(kChanClose)
				err = s.Close()
				rt.end()
				if err != nil {
					return err
				}
				clk.outOut = since()
			}

			// A channel's two ends run at once; a file's phases take turns.
			if w.shape != shapeChan && !ctl.bar.wait(nil) {
				return errAborted
			}

			// ---- input phase ----
			switch {
			case w.shape == shapeStream:
				clk.inIn = since()
				rt.begin(kOpenInput)
				s, err := sess.OpenInput(n, rd, w.name, w.readOpts...)
				rt.end()
				if err != nil {
					return err
				}
				for rec := range backC {
					rt.begin(kRead)
					if w.sorted {
						err = s.Read()
					} else {
						err = s.UnsortedRead()
					}
					rt.end()
					if err != nil {
						return err
					}
					rt.begin(kExtract)
					err = pcxxstreams.Extract[T, PT](s, backC[rec])
					rt.end()
					if err != nil {
						return err
					}
				}
				if countPlan {
					lg.swaps += s.PlanSwitches()
				}
				rt.begin(kCloseInput)
				err = s.Close()
				rt.end()
				if err != nil {
					return err
				}
				clk.inOut = since()
			case w.shape == shapeCkpt:
				var got uint64
				clk.inIn = since()
				rt.begin(kRestore)
				if !detail {
					got, err = pcxxstreams.RestoreCheckpoint[T, PT](n, w.name, 2, backC[0])
				} else {
					got, err = ckpt.Restore(n, w.name, 2, rd, func(s *dstream.IStream) error {
						rt.begin(kRead)
						err := s.Read()
						rt.end()
						if err != nil {
							return err
						}
						rt.begin(kExtract)
						err = pcxxstreams.Extract[T, PT](s, backC[0])
						rt.end()
						if countPlan {
							lg.swaps += s.PlanSwitches()
						}
						if mode == modeCheck {
							lg.sigs = append(lg.sigs, s.PlanSignature())
						}
						return err
					})
				}
				rt.end()
				if err != nil {
					return err
				}
				clk.inOut = since()
				if got != uint64(cycle)+1 {
					cerr = fmt.Errorf("restored epoch %d, saved %d", got, uint64(cycle)+1)
				}
			case reader:
				clk.inIn = since()
				rt.begin(kChanOpenInput)
				s, err := sess.OpenChannelInput(n, rd, wd, fileName)
				rt.end()
				if err != nil {
					return err
				}
				for rec := 0; ; rec++ {
					rt.begin(kChanRead)
					err = s.Read()
					rt.end()
					if errors.Is(err, pcxxstreams.ErrEOS) {
						if rec != w.records {
							cerr = fmt.Errorf("end of stream after %d records, want %d", rec, w.records)
						}
						break
					}
					if err != nil {
						return err
					}
					if rec >= w.records {
						return fmt.Errorf("%s: more than %d records on the channel", w.name, w.records)
					}
					rt.begin(kChanExtract)
					err = pcxxstreams.ExtractElems[T, PT](s, back[rec])
					rt.end()
					if err != nil {
						return err
					}
				}
				clk.inOut = since()
				rt.begin(kChanCloseInput)
				err = s.Close()
				rt.end()
				if err != nil {
					return err
				}
			}

			if !ctl.bar.wait(func() {
				if rt != nil && mode == modeMeasured {
					ctl.cpu[cycle] = cpuNow() - ctl.cpuStart
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					ctl.heapPeak = max(ctl.heapPeak, m.HeapAlloc)
				}
			}) {
				return errAborted
			}

			// ---- check, outside the timed phases ----
			if reader && cerr == nil {
				cerr = verify(w, back, stamp, ref, rrank)
			}
			if reader && cerr == nil && mode == modeCheck {
				for rec := range back {
					for l := range back[rec] {
						want := all[rec][rd.GlobalIndex(rrank, l)]
						w.ops.setStamp(&want, stamp)
						if !w.ops.equal(&back[rec][l], &want) {
							cerr = fmt.Errorf("record %d: element %d differs from what was inserted", rec, rd.GlobalIndex(rrank, l))
							break
						}
					}
				}
			}
			if rank == 0 && mode == modeCheck && w.shape != shapeChan {
				h, size, err := imageHash(fs, fileName)
				if err != nil {
					return err
				}
				lg.image, lg.size = append(lg.image, h), size
			}
			if cerr != nil {
				fmt.Fprintf(os.Stderr, "%s: cycle %d rank %d: %v\n", w.name, cycle, rank, cerr)
				lg.failed = append(lg.failed, cycle)
			}
			if mode == modeMeasured {
				lg.clocks = append(lg.clocks, clk)
			}
		}
		done = true
		return nil
	}

	mres, runErr := sess.Run(cfg, body)

	res = &runResult{
		setupSeconds: ctl.setupEnd.Sub(setupStart).Seconds(),
		attempted:    int(ctl.cycle) + 1,
		measuredAll:  ctl.measured,
		payload:      payload,
		elems:        int64(w.records) * int64(elems),
		mallocs:      ctl.m1.Mallocs - ctl.m0.Mallocs - uint64(ctl.measured)*cal.mallocs, // less the reference round trips
		allocBytes:   ctl.m1.TotalAlloc - ctl.m0.TotalAlloc - uint64(ctl.measured)*cal.allocBytes,
		imageBytes:   logs[0].size,
		heapPeak:     ctl.heapPeak,
		msgsSent:     int64(mres.MessagesSent),
		bytesSent:    mres.BytesSent,
	}
	if ctl.mode != modeDone {
		// A rank gave up: the cycle in progress is the one that failed.
		res.failed++
	}
	var setupSpeeds []float64
	for _, d := range ctl.refTrips[:ctl.setupCycles] {
		setupSpeeds = append(setupSpeeds, cal.speed(d))
	}
	res.setupSpeed = median(setupSpeeds)
	res.io = ctl.io
	res.pool = poolDelta(ctl.pool1, ctl.pool0)
	if rs, ok := baseTransport.(interface{ RingStats() comm.RingStats }); ok {
		res.ring = rs.RingStats()
	}
	failed := map[int32]bool{}
	for r := range logs {
		for _, c := range logs[r].failed {
			failed[c] = true
		}
		res.planSwitches += logs[r].swaps
	}
	res.planSigs = logs[0].sigs
	for r := 1; r < nprocs; r++ {
		for i, s := range logs[r].sigs {
			if i >= len(res.planSigs) || s != res.planSigs[i] {
				failed[0] = true
				fmt.Fprintf(os.Stderr, "%s: rank %d disagrees with rank 0 on plan signature %d\n", w.name, r, i)
			}
		}
	}
	if img := logs[0].image; len(img) == 2 && img[0] != img[1] {
		failed[ctl.cycle] = true
		fmt.Fprintf(os.Stderr, "%s: the first and the last cycle stored different bytes (FNV-1a %#x, %#x)\n", w.name, img[0], img[1])
	}
	res.failed += len(failed)

	// One cycleTimes per measured cycle that every rank finished and none failed.
	for i := range logs[0].clocks {
		ct := cycleTimes{cycle: logs[0].clocks[i].cycle, outStart: -1, outEnd: -1, inStart: -1, inEnd: -1}
		whole := !failed[ct.cycle]
		for r := range logs {
			if i >= len(logs[r].clocks) {
				whole = false
				break
			}
			c := logs[r].clocks[i]
			if c.outIn >= 0 {
				if ct.outStart < 0 || c.outIn < ct.outStart {
					ct.outStart = c.outIn
				}
				ct.outEnd = max(ct.outEnd, c.outOut)
			}
			if c.inIn >= 0 {
				if ct.inStart < 0 || c.inIn < ct.inStart {
					ct.inStart = c.inIn
				}
				ct.inEnd = max(ct.inEnd, c.inOut)
			}
		}
		for r := range logs {
			if !whole {
				break
			}
			if c := logs[r].clocks[i]; c.outIn >= 0 {
				ct.skewNs += (c.outIn - ct.outStart) + (ct.outEnd - c.outOut)
			}
			if c := logs[r].clocks[i]; c.inIn >= 0 {
				ct.skewNs += (c.inIn - ct.inStart) + (ct.inEnd - c.inOut)
			}
		}
		if whole {
			ct.cpuNs = ctl.cpu[ct.cycle]
			ct.speed = cal.speed(ctl.refTrips[ct.cycle])
			res.measured = append(res.measured, ct)
		}
	}
	if o.tracer != nil {
		res.spans = o.tracer.finish(res.measured)
	}
	if runErr != nil && !errors.Is(runErr, errAborted) {
		return res, fmt.Errorf("%s: %w", w.name, runErr)
	}
	return res, runErr
}

// digest folds elements into one number: a chain when order is promised, a
// sum when it is not.
func digest[T any](w *spec[T], elems []T) uint64 {
	var d uint64
	for l := range elems {
		h := w.ops.hash(&elems[l])
		if w.sorted {
			d = mix(d, h)
		} else {
			d += h
		}
	}
	return d
}

// verify checks every element a rank got back: the stamp must be this
// cycle's (a skipped extract leaves the last cycle's behind) and the rest
// must hash to the reference.
func verify[T any](w *spec[T], back [][]T, stamp int64, ref [][]uint64, rrank int) error {
	for rec := range back {
		for l := range back[rec] {
			if got := w.ops.stamp(&back[rec][l]); got != stamp {
				return fmt.Errorf("record %d local %d: stamp %d, want %d", rec, l, got, stamp)
			}
		}
		if got := digest(w, back[rec]); got != ref[rec][rrank] {
			return fmt.Errorf("record %d: digest %#x, want %#x", rec, got, ref[rec][rrank])
		}
	}
	return nil
}

func poolDelta(a, b bufpool.PoolStats) bufpool.PoolStats {
	return bufpool.PoolStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Puts: a.Puts - b.Puts,
		Discards: a.Discards - b.Discards, Oversize: a.Oversize - b.Oversize, Outstanding: a.Outstanding - b.Outstanding}
}

// ---- the five workloads ---------------------------------------------------

var ckptSmall = spec[smallElem]{
	name: "ckpt_small", ops: &smallOps, elems: 16384, records: 8, warmup: 14, shape: shapeStream, refMBps: 1400,
	factory:   func(string) pfs.BackendFactory { return pcxxstreams.MemFactory() },
	writeOpts: []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyFunnel)},
	readOpts:  []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyFunnel)},
	readMode:  pcxxstreams.Cyclic,
}

var ckptLarge = spec[scf.Segment]{
	name: "ckpt_large", ops: &segmentOps, elems: 2048, records: 1, warmup: 30, shape: shapeCkpt, refMBps: 2350,
	factory: pcxxstreams.OSFactory, onDisk: true,
	readMode: pcxxstreams.Cyclic, sorted: true,
}

var restartRedist = spec[scf.Segment]{
	name: "restart_redist", ops: &segmentOps, elems: 1024, records: 4, warmup: 12, shape: shapeStream, refMBps: 2050,
	factory: func(string) pfs.BackendFactory { return pcxxstreams.StripedMemFactory(4, 64<<10) },
	writeOpts: []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyTwoPhase),
		pcxxstreams.WithAggregators(2)},
	readOpts: []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyTwoPhase),
		pcxxstreams.WithReadAhead(2)},
	readMode: pcxxstreams.Block, sorted: true,
}

var pipeChan = spec[scf.Segment]{
	name: "pipe_chan", ops: &segmentOps, elems: 1024, records: 8, warmup: 12, shape: shapeChan, refMBps: 2300,
	factory:  func(string) pfs.BackendFactory { return pcxxstreams.MemFactory() }, // never opened
	readMode: pcxxstreams.Block, sorted: true,
}

var daemonCkpt = spec[scf.Segment]{
	name: "daemon_ckpt", ops: &segmentOps, elems: 2048, records: 1, warmup: 16, shape: shapeStream, daemon: true, refMBps: 1700,
	writeOpts: []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyParallel)},
	readOpts:  []pcxxstreams.StreamOption{pcxxstreams.WithStrategy(pcxxstreams.StrategyParallel)},
	readMode:  pcxxstreams.Cyclic,
}

// workload is a spec with its element type folded away.
type workload struct {
	name string
	why  string
	run  func(runOpts) (*runResult, error)
}

var workloads = []workload{
	{"ckpt_small", "tiny elements: per-element and per-record overhead does the work, bytes hardly any",
		func(o runOpts) (*runResult, error) { return run[smallElem](&ckptSmall, o) }},
	{"ckpt_large", "11.5 MB checkpoint on real files: per-byte copies dominate; bypass case for per-element changes",
		func(o runOpts) (*runResult, error) { return run[scf.Segment](&ckptLarge, o) }},
	{"restart_redist", "two-phase write, sorted read into another layout: payload crosses collective and comm",
		func(o runOpts) (*runResult, error) { return run[scf.Segment](&restartRedist, o) }},
	{"pipe_chan", "producer-to-consumer channel: same insert and extract code, no file system at all",
		func(o runOpts) (*runResult, error) { return run[scf.Segment](&pipeChan, o) }},
	{"daemon_ckpt", "ckpt_large's data through a loopback dstreamd: wire framing, windows and I/O-rank queues",
		func(o runOpts) (*runResult, error) { return run[scf.Segment](&daemonCkpt, o) }},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
