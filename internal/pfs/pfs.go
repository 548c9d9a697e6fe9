package pfs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// FileSystem is one simulated parallel file system instance. Create one per
// machine run; handles from different nodes share the same file images and
// the same disk timing state.
type FileSystem struct {
	mu      sync.Mutex
	prof    vtime.Profile
	factory BackendFactory
	files   map[string]*file

	abort    chan struct{}
	abortErr error

	counters ioCounters
	rec      *dsmon.Recorder
	met      pfsMetrics
	mon      *dsmon.Monitor
}

// pfsOpMetrics is the dsmon handle set for one operation kind. The zero
// value (all nil) is inert, so unmonitored file systems pay nothing.
type pfsOpMetrics struct {
	ops   *dsmon.Counter
	bytes *dsmon.Counter
	size  *dsmon.Histogram
	dur   *dsmon.Histogram
}

// record accounts one executed operation: count, bytes moved, the
// transfer-size histogram, and the virtual duration from first issue to
// completion.
func (om pfsOpMetrics) record(bytes int64, start, end float64) {
	om.ops.Inc()
	om.bytes.Add(bytes)
	om.size.Observe(float64(bytes))
	om.dur.Observe(end - start)
}

// pfsMetrics holds one handle set per PFS operation kind, plus the
// transient-fault retry counter and what truncate-on-open dropped.
type pfsMetrics struct {
	open, writeAt, readAt, pappend, pread, csync pfsOpMetrics
	retries, truncates, truncatedBytes           *dsmon.Counter
}

// SetMonitor attaches the observability layer: per-operation counters and
// the size/duration histograms under the pfs_* families, and the monitor's
// recorder (nil unless it traces) as the sink for the virtual interval of
// every I/O operation. Call before the machine run starts.
func (fs *FileSystem) SetMonitor(m *dsmon.Monitor) {
	reg := m.Registry()
	mk := func(op string) pfsOpMetrics {
		return pfsOpMetrics{
			ops:   reg.Counter("pfs_ops_total", "file-system operations executed", "op", op),
			bytes: reg.Counter("pfs_io_bytes_total", "bytes moved, whole-group total per collective op", "op", op),
			size: reg.Histogram("pfs_io_size_bytes",
				"bytes moved per operation (whole group for collective ops)", dsmon.SizeBuckets, "op", op),
			dur: reg.Histogram("pfs_op_seconds",
				"virtual seconds from first arrival to completion", dsmon.LatencyBuckets, "op", op),
		}
	}
	fs.met = pfsMetrics{
		open:    mk("open"),
		writeAt: mk("write_at"),
		readAt:  mk("read_at"),
		pappend: mk("parallel_append"),
		pread:   mk("parallel_read"),
		csync:   mk("control_sync"),
		retries: reg.Counter("pfs_io_retries_total",
			"backend operations re-issued after a transient storage fault or short transfer"),
		truncates:      reg.Counter("pfs_truncates_total", "file images cleared by a truncating open"),
		truncatedBytes: reg.Counter("pfs_truncated_bytes_total", "bytes of old image truncating opens dropped"),
	}
	fs.rec = m.Recorder()
	// Backends with their own instruments (e.g. the striped backend's
	// fan-out histogram) bind to the same registry, existing and future.
	fs.mu.Lock()
	fs.mon = m
	for _, f := range fs.files {
		attachBackendMonitor(f.b, m)
	}
	fs.mu.Unlock()
}

// attachBackendMonitor hands the monitor to any backend layer that wants
// instruments of its own (the striped backend's fan-out histogram). The
// resilient wrapper forwards the call to whatever it wraps.
func attachBackendMonitor(b Backend, m *dsmon.Monitor) {
	if mb, ok := b.(interface{ SetMonitor(*dsmon.Monitor) }); ok {
		mb.SetMonitor(m)
	}
}

// NewFileSystem builds a file system with the given cost profile and
// storage factory.
func NewFileSystem(prof vtime.Profile, factory BackendFactory) *FileSystem {
	return &FileSystem{
		prof:    prof,
		factory: factory,
		files:   make(map[string]*file),
		abort:   make(chan struct{}),
	}
}

// ResetAbort re-arms a file system whose previous machine run was aborted,
// so a later run (e.g. a restart after a simulated crash) can use the same
// file images. It also clears rendezvous state left behind by nodes that
// died mid-collective. A FileSystem supports one machine run at a time;
// the machine runner calls this at the start of each run.
func (fs *FileSystem) ResetAbort() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	select {
	case <-fs.abort:
		fs.abort = make(chan struct{})
		fs.abortErr = nil
		for _, f := range fs.files {
			f.mu.Lock()
			f.rdvs = make(map[uint64]*rendezvous)
			f.refs = 0
			f.mayTrunc = true
			f.mu.Unlock()
		}
	default:
	}
}

// Abort wakes every node blocked in a collective file operation with err.
// The machine runner calls it when a node fails, so surviving nodes cannot
// deadlock waiting for a peer that will never arrive at the rendezvous, nor
// for one whose move never finishes.
func (fs *FileSystem) Abort(err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	select {
	case <-fs.abort:
	default:
		if err == nil {
			err = fmt.Errorf("pfs: aborted")
		}
		fs.abortErr = err
		close(fs.abort)
		for _, f := range fs.files {
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		}
	}
}

// NewMemFS is shorthand for an in-memory file system.
func NewMemFS(prof vtime.Profile) *FileSystem {
	return NewFileSystem(prof, MemFactory())
}

// Profile returns the cost profile of the file system.
func (fs *FileSystem) Profile() vtime.Profile { return fs.prof }

// file is the shared per-name state.
type file struct {
	mu   sync.Mutex
	name string
	b    Backend
	d    *disk
	refs int
	// mayTrunc guards truncate-on-open: a fresh open generation (no opens
	// since the refcount last reached zero) may truncate exactly once, so a
	// node opening late cannot wipe data an early opener already wrote.
	mayTrunc bool
	rdvs     map[uint64]*rendezvous
	// cond (on mu) is what a rank waits on inside a rendezvous, for either
	// step; Abort broadcasts it too.
	cond sync.Cond
}

func newFile(fs *FileSystem, name string, b Backend) *file {
	f := &file{name: name, b: &resilientBackend{Backend: b, fs: fs}, d: newDisk(fs.prof), mayTrunc: true, rdvs: make(map[uint64]*rendezvous)}
	f.cond.L = &f.mu
	if fs.mon != nil {
		attachBackendMonitor(f.b, fs.mon)
	}
	return f
}

// rendezvous synchronizes one collective operation across the group, in two
// steps. Agree: the last arrival fixes what is a function of the arrivals and
// sizes alone — where the blocks land, when the group leaves. Move: every rank
// moves its own block or range, concurrently with its peers, and the last to
// finish folds their outcomes — the bytes landed, the first error by rank — into
// the one result everyone leaves with. Beyond that it holds only nums, made by
// the first rank to arrive: an append's offsets then sizes, a read's sizes.
type rendezvous struct {
	arrived, moved  int
	agreed, settled bool
	arrivals        []float64
	completion      float64
	nums            []int64
	landed          int64
	err             error
	errRank         int
}

// Range is one node's contribution to a ParallelRead: read Len bytes at Off.
type Range struct {
	Off int64
	Len int
}

// File is one node's handle on a parallel file. Methods must be called only
// from the owning node's goroutine; collective methods must be called by
// every node of the group in the same order.
type File struct {
	fs     *FileSystem
	f      *file
	rank   int
	nprocs int
	clock  *vtime.Clock
	seq    uint64
	closed bool
	// lastAsync is the span ID of the background-disk half of this rank's
	// most recent asynchronous collective (0 when not tracing). Consumers
	// that later wait on the completion (dstream's Drain, a prefetch hit)
	// read it to link their wait span to the I/O that satisfied it.
	lastAsync dsmon.SpanID
}

// LastAsyncSpan returns the span ID of the most recent asynchronous
// collective's background-disk interval on this handle, 0 when the file
// system is not tracing or no async collective has run yet.
func (h *File) LastAsyncSpan() dsmon.SpanID { return h.lastAsync }

// Open returns rank's handle on the named file in a group of nprocs nodes,
// charging the platform's open latency. If trunc is true the file image is
// cleared by the first opener of the current open generation.
func (fs *FileSystem) Open(name string, nprocs, rank int, clock *vtime.Clock, trunc bool) (*File, error) {
	if nprocs <= 0 || rank < 0 || rank >= nprocs {
		return nil, fmt.Errorf("pfs: open %q: bad rank %d of %d", name, rank, nprocs)
	}
	fs.mu.Lock()
	f, ok := fs.files[name]
	if !ok {
		b, err := fs.factory(name)
		if err != nil {
			fs.mu.Unlock()
			return nil, fmt.Errorf("pfs: open %q: %w", name, err)
		}
		f = newFile(fs, name, b)
		fs.files[name] = f
	}
	fs.mu.Unlock()

	start := clock.Now()
	f.mu.Lock()
	if trunc && f.mayTrunc {
		var dropped int64
		if fs.met.truncatedBytes != nil { // Size can be a system call: only when someone reads it
			dropped = f.b.Size()
		}
		if err := f.b.Truncate(0); err != nil {
			f.mu.Unlock()
			return nil, fmt.Errorf("pfs: truncate %q: %w", name, err)
		}
		fs.met.truncates.Inc()
		fs.met.truncatedBytes.Add(dropped)
	}
	f.mayTrunc = false
	f.refs++
	f.mu.Unlock()

	clock.Advance(fs.prof.OpenLatency)
	fs.counters.opens.Add(1)
	fs.met.open.record(0, start, clock.Now())
	return &File{fs: fs, f: f, rank: rank, nprocs: nprocs, clock: clock}, nil
}

// InjectFault wraps the named file's backend so that I/O fails after
// failAfter further operations. Test hook; creates the file if absent.
func (fs *FileSystem) InjectFault(name string, failAfter int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		b, err := fs.factory(name)
		if err != nil {
			return err
		}
		f = newFile(fs, name, b)
		fs.files[name] = f
	}
	f.mu.Lock()
	f.b = NewFaultyBackend(f.b, failAfter)
	f.mu.Unlock()
	return nil
}

// Rank returns the handle's rank.
func (h *File) Rank() int { return h.rank }

// Name returns the file's name.
func (h *File) Name() string { return h.f.name }

// Size returns the current file image size in bytes (no time charged; the
// library uses it only for bookkeeping it would otherwise carry in memory).
func (h *File) Size() int64 { return h.f.b.Size() }

// WriteAt is an independent (non-collective) write of p at off, the
// operating-system primitive of the paper's unbuffered baseline.
func (h *File) WriteAt(p []byte, off int64) error {
	if h.closed {
		return fmt.Errorf("pfs: write on closed handle %q", h.f.name)
	}
	if _, err := h.f.b.WriteAt(p, off); err != nil {
		return fmt.Errorf("pfs: write %q at %d: %w", h.f.name, off, err)
	}
	slow := off >= h.fs.prof.SlowOffset
	start := h.clock.Now()
	h.clock.SyncTo(h.f.d.submit(h.rank, start, int64(len(p)), true, slow))
	h.fs.rec.Add(h.rank, "io", "WriteAt "+h.f.name, start, h.clock.Now())
	h.fs.counters.independentWrites.Add(1)
	h.fs.counters.bytesWritten.Add(int64(len(p)))
	h.fs.met.writeAt.record(int64(len(p)), start, h.clock.Now())
	return nil
}

// ReadAt is an independent read of len(p) bytes at off.
func (h *File) ReadAt(p []byte, off int64) error {
	if h.closed {
		return fmt.Errorf("pfs: read on closed handle %q", h.f.name)
	}
	if err := readFull(h.f.b, p, off); err != nil {
		return fmt.Errorf("pfs: read %q at %d: %w", h.f.name, off, err)
	}
	// A small read of a file larger than the OS cache seeks no matter where
	// it lands — after writing such a file, none of it is still cached.
	slow := h.f.b.Size() >= h.fs.prof.SlowOffset
	start := h.clock.Now()
	h.clock.SyncTo(h.f.d.submit(h.rank, start, int64(len(p)), false, slow))
	if rec := h.fs.rec; rec != nil { // the span's name is the read's one allocation
		rec.Add(h.rank, "io", "ReadAt "+h.f.name, start, h.clock.Now())
	}
	h.fs.counters.independentReads.Add(1)
	h.fs.counters.bytesRead.Add(int64(len(p)))
	h.fs.met.readAt.record(int64(len(p)), start, h.clock.Now())
	return nil
}

// Close drops the handle. The underlying image persists in the file system
// so it can be reopened (e.g. written by an oStream, read back by an
// iStream).
func (h *File) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.f.mu.Lock()
	h.f.refs--
	if h.f.refs == 0 {
		h.f.mayTrunc = true // next open generation may truncate again
	}
	h.f.mu.Unlock()
	return nil
}

// collect runs the collective operation op (the name its spans carry, with
// the file's) as the rendezvous' two steps. Every arrival runs fill under the
// file lock — the first finds r.nums nil and makes it — and the last runs
// agree with the lock released, then releases the group. Then every rank runs
// move on its own goroutine, unlocked and concurrently with its peers: move
// reports the bytes this rank landed and its error, and the last rank to
// finish folds them into r and runs settle (under the file lock) before it
// releases the group again. An operation with nothing to move (move nil) ends
// at the agreement. Both waits are on the file's cond and end early when the
// file system is aborted.
// When syncClock is false the caller's virtual clock is NOT advanced to the
// operation's completion time — the asynchronous (write-behind) mode, where
// the disk works in the background while the node computes; the disk's
// channel horizon still moves, so later operations queue behind this one.
func (h *File) collect(op string, syncClock bool, fill, agree func(r *rendezvous), move func(r *rendezvous) (int64, error), settle func(r *rendezvous)) (*rendezvous, error) {
	if h.closed {
		return nil, fmt.Errorf("pfs: collective op on closed handle %q", h.f.name)
	}
	arrival := h.clock.Now()
	h.seq++
	f := h.f
	f.mu.Lock()
	r, ok := f.rdvs[h.seq]
	if !ok {
		r = &rendezvous{arrivals: make([]float64, h.nprocs)}
		f.rdvs[h.seq] = r
	}
	r.arrivals[h.rank] = arrival
	if fill != nil {
		fill(r)
	}
	r.arrived++
	if r.arrived == h.nprocs {
		delete(f.rdvs, h.seq)
		f.mu.Unlock()
		agree(r)
		f.mu.Lock()
		r.agreed = true
		f.cond.Broadcast()
	} else if err := h.await(&r.agreed); err != nil {
		return nil, err
	}
	if move != nil {
		f.mu.Unlock()
		landed, err := move(r)
		f.mu.Lock()
		r.landed += landed
		if err != nil && (r.err == nil || h.rank < r.errRank) {
			r.err, r.errRank = err, h.rank
		}
		r.moved++
		if r.moved == h.nprocs {
			settle(r)
			r.settled = true
			f.cond.Broadcast()
		} else if err := h.await(&r.settled); err != nil {
			return nil, err
		}
	}
	f.mu.Unlock()

	rec := h.fs.rec
	if syncClock {
		h.clock.SyncTo(r.completion)
		if rec != nil {
			rec.Add(h.rank, "collective", op+" "+f.name, arrival, r.completion)
		}
	} else {
		// Still a rendezvous: nobody leaves before the last arrival (the
		// group must agree on the file layout), but the transfer itself
		// proceeds in the background.
		h.clock.SyncTo(vtime.MaxOf(r.arrivals))
		if rec != nil {
			// Async mode splits the event into the foreground issue
			// (rendezvous) interval and the background disk interval, with
			// an issue→completion edge between them; the disk span ID is
			// kept on the handle so whoever later waits on the completion
			// can link their stall to this I/O.
			name := op + " " + f.name
			leave := h.clock.Now()
			issue := rec.AddSpan(h.rank, "collective", name, arrival, leave)
			disk := rec.AddSpan(h.rank, "io", name+" (async)", leave, r.completion)
			rec.AddFlow(issue, disk, "async-io")
			h.lastAsync = disk
		}
	}
	return r, r.err
}

// await parks the rank on the file's cond until *done holds. It is called
// with the file lock held and returns nil with it still held, or — when the
// file system is aborted first — the abort's error with it released.
func (h *File) await(done *bool) error {
	for !*done {
		select {
		case <-h.fs.abort:
			h.f.mu.Unlock()
			return fmt.Errorf("pfs: collective on %q aborted: %w", h.f.name, h.fs.abortErr)
		default:
		}
		h.f.cond.Wait()
	}
	return nil
}

// settle closes the accounts of a collective transfer of which r.landed bytes
// reached their destination: the whole of it, unless the backend failed part
// way, and then the operation is counted with what it did move and has no
// transfer size or duration to add to the histograms.
func (h *File) settle(r *rendezvous, om pfsOpMetrics, ops, bytes *atomic.Int64) {
	ops.Add(1)
	bytes.Add(r.landed)
	if r.err != nil {
		om.ops.Inc()
		om.bytes.Add(r.landed)
		return
	}
	om.record(r.landed, slices.Min(r.arrivals), r.completion)
}

// ParallelAppend is the synchronized node-order append of the Paragon PFS:
// every node contributes a block (possibly empty); the blocks are written
// contiguously in rank order at the end of the file. A node hands over its
// block as the pieces it already has it in, in order — one buffer, or a
// header and the frames behind it; empty pieces are skipped. Each node writes
// its own pieces, concurrently with the others, once the group has agreed
// where every block lands; the pieces are the caller's again when the call
// returns on its rank, and nothing keeps a reference to them. It returns the
// file offset at which the caller's block landed. All nodes leave at the same
// virtual time, with the same error.
func (h *File) ParallelAppend(pieces ...[]byte) (int64, error) {
	off, _, err := h.parallelAppend(pieces, true)
	return off, err
}

// ParallelAppendAsync is the write-behind variant of ParallelAppend: the
// blocks land in the file and the disk is busy until the returned
// completion time, but the caller's clock only advances to the rendezvous
// point — computation overlaps the transfer. Callers must eventually
// SyncTo the completion time (an output stream does this at Close).
func (h *File) ParallelAppendAsync(pieces ...[]byte) (off int64, completion float64, err error) {
	return h.parallelAppend(pieces, false)
}

func (h *File) parallelAppend(pieces [][]byte, syncClock bool) (int64, float64, error) {
	n := h.nprocs
	var size int64
	for _, p := range pieces {
		size += int64(len(p))
	}
	r, err := h.collect("ParallelAppend", syncClock,
		func(r *rendezvous) {
			if r.nums == nil {
				r.nums = make([]int64, 2*n)
			}
			r.nums[n+h.rank] = size
		},
		func(r *rendezvous) {
			offsets, sizes := r.nums[:n], r.nums[n:]
			off := h.f.b.Size()
			for i, sz := range sizes {
				offsets[i] = off
				off += sz
			}
			r.completion = h.f.d.parallel(r.arrivals, sizes, true)
		},
		// One backend write per piece, at a running offset; landed stops at
		// the first piece that failed.
		func(r *rendezvous) (int64, error) {
			at, landed := r.nums[h.rank], int64(0)
			for _, p := range pieces {
				if len(p) == 0 {
					continue
				}
				if _, err := h.f.b.WriteAt(p, at); err != nil {
					return landed, fmt.Errorf("pfs: parallel append %q: %w", h.f.name, err)
				}
				at += int64(len(p))
				landed += int64(len(p))
			}
			return landed, nil
		},
		func(r *rendezvous) {
			h.settle(r, h.fs.met.pappend, &h.fs.counters.parallelAppends, &h.fs.counters.bytesWritten)
		},
	)
	if err != nil {
		return 0, 0, err
	}
	return r.nums[h.rank], r.completion, nil
}

// readFull fills p from b at off as io.ReadFull over an io.SectionReader
// would, without allocating the reader: a ReadAt, and another for whatever a
// short one without an error left. A read that meets the end of the store is
// io.EOF when it filled nothing and io.ErrUnexpectedEOF when it filled some.
func readFull(b io.ReaderAt, p []byte, off int64) error {
	n := 0
	var err error
	for n < len(p) && err == nil {
		var m int
		m, err = b.ReadAt(p[n:], off+int64(n))
		n += m
	}
	switch {
	case n == len(p):
		return nil
	case err == io.EOF && n > 0:
		return io.ErrUnexpectedEOF
	}
	return err
}

// ParallelReadPieces is the read mirror of ParallelAppend: every node
// supplies the pieces its byte range of the file lands in, in order, from off
// on — one buffer, or the parts of it that different owners will hold; empty
// pieces are skipped, and no pieces is an empty range. Each node fills its own
// pieces, one backend read a piece, concurrently with the others, and the disk
// is charged for the pieces' summed length as for one range. The pieces are
// the caller's again when the call returns on its rank, and nothing keeps a
// reference to them. All nodes leave at the same virtual time, with the same
// error.
func (h *File) ParallelReadPieces(off int64, pieces ...[]byte) error {
	_, err := h.parallelRead(off, pieces, 0, true)
	return err
}

// ParallelReadPiecesAsync is the read-ahead variant of ParallelReadPieces, as
// ParallelReadAsync is of ParallelRead: the pieces are filled when it returns
// and the disk is busy until the returned completion time, to which the
// caller must SyncTo before it consumes them.
func (h *File) ParallelReadPiecesAsync(off int64, pieces ...[]byte) (completion float64, err error) {
	return h.parallelRead(off, pieces, 0, false)
}

// parallelRead is the one read body. With draw > 0 the caller has no
// destination: pieces is one nil entry, which this rank sets to a pooled
// buffer of draw bytes in the move step. Drawn there, once every rank has
// arrived, the buffer can be one a peer gave back on its way to the read (the
// last stream's arena, say); drawn on arrival, the reads of a checkpoint cycle
// on real files missed the pool about four times as often.
func (h *File) parallelRead(off int64, pieces [][]byte, draw int, syncClock bool) (float64, error) {
	n := h.nprocs
	size := int64(draw)
	for _, p := range pieces {
		size += int64(len(p))
	}
	r, err := h.collect("ParallelRead", syncClock,
		func(r *rendezvous) {
			if r.nums == nil {
				r.nums = make([]int64, n)
			}
			r.nums[h.rank] = size
		},
		func(r *rendezvous) {
			r.completion = h.f.d.parallel(r.arrivals, r.nums, false)
		},
		// One backend read per piece, at a running offset; landed stops at the
		// first piece that failed.
		func(*rendezvous) (int64, error) {
			if draw > 0 {
				pieces[0] = bufpool.Get(draw)
			}
			at := off
			for _, p := range pieces {
				if len(p) == 0 {
					continue
				}
				if err := readFull(h.f.b, p, at); err != nil {
					return at - off, fmt.Errorf("pfs: parallel read %q [%d,+%d): %w", h.f.name, at, len(p), err)
				}
				at += int64(len(p))
			}
			return at - off, nil
		},
		func(r *rendezvous) {
			h.settle(r, h.fs.met.pread, &h.fs.counters.parallelReads, &h.fs.counters.bytesRead)
		},
	)
	if err != nil {
		return 0, err
	}
	return r.completion, nil
}

// ParallelRead is the synchronized parallel read: every node supplies the
// byte range it needs (possibly empty) and receives that range, read by its
// own goroutine concurrently with the others. All nodes leave at the same
// virtual time, with the same error. The returned buffer is pool-backed and
// owned by the caller (bufpool.Put when done is optional).
func (h *File) ParallelRead(rg Range) ([]byte, error) {
	b, _, err := h.readRange(rg, nil, true)
	return b, err
}

// ParallelReadInto is ParallelRead reading into the caller's buffer: when
// cap(dst) covers the range, dst[:rg.Len] is filled and returned and the
// steady state allocates nothing; otherwise (including dst == nil) a
// pool-backed buffer is returned. Each rank's dst serves only its own range.
func (h *File) ParallelReadInto(rg Range, dst []byte) ([]byte, error) {
	b, _, err := h.readRange(rg, dst, true)
	return b, err
}

// ParallelReadAsync is the read-ahead variant of ParallelRead: the data is
// available in the returned buffer and the disk is busy until the returned
// completion time, but the caller's clock only advances to the rendezvous
// point — the transfer overlaps whatever the node computes next. Callers
// must SyncTo the completion time before consuming the bytes (an input
// stream does this when the prefetched record is read).
func (h *File) ParallelReadAsync(rg Range) (data []byte, completion float64, err error) {
	return h.readRange(rg, nil, false)
}

// ParallelReadIntoAsync is ParallelReadAsync reading into the caller's
// buffer, with ParallelReadInto's reuse contract.
func (h *File) ParallelReadIntoAsync(rg Range, dst []byte) (data []byte, completion float64, err error) {
	return h.readRange(rg, dst, false)
}

// readRange is the piece-list read of one range: the one piece is dst when it
// is large enough and a buffer drawn from the pool otherwise, and an empty
// range has none, whatever the destination.
func (h *File) readRange(rg Range, dst []byte, syncClock bool) ([]byte, float64, error) {
	pieces := [][]byte{nil}
	draw := 0
	switch {
	case rg.Len > 0 && cap(dst) >= rg.Len:
		pieces[0] = dst[:rg.Len]
	case rg.Len > 0:
		draw = rg.Len
	}
	completion, err := h.parallelRead(rg.Off, pieces, draw, syncClock)
	if err != nil {
		// The group failed, on this rank's range or a peer's: what this rank
		// drew from the pool goes back.
		if draw > 0 {
			bufpool.Put(pieces[0])
		}
		return nil, 0, err
	}
	return pieces[0], completion, nil
}

// ControlSync is a synchronizing metadata operation (the gopen/eseek-style
// control calls of the Paragon PFS): all nodes rendezvous and leave at
// max(arrival) + ControlOpLatency. It is the rendezvous with nothing to move.
func (h *File) ControlSync() error {
	_, err := h.collect("ControlSync", true, nil,
		func(r *rendezvous) {
			r.completion = h.f.d.control(r.arrivals)
			h.fs.counters.controlSyncs.Add(1)
			h.fs.met.csync.record(0, slices.Min(r.arrivals), r.completion)
		},
		nil, nil,
	)
	return err
}

// Image returns a copy of the full current file image (tools/tests).
func (fs *FileSystem) Image(name string) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	sz := f.b.Size()
	buf := make([]byte, sz)
	if sz == 0 {
		return buf, nil
	}
	if _, err := f.b.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// Names lists the files present, sorted (tools/tests).
func (fs *FileSystem) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close closes every backend.
func (fs *FileSystem) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for _, f := range fs.files {
		if err := f.b.Close(); err != nil && first == nil {
			first = err
		}
	}
	fs.files = make(map[string]*file)
	return first
}
