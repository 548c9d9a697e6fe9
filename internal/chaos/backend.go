package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
)

// Backend wraps any pfs.Backend with seeded transient storage faults:
// outright read/write errors and short transfers, all wrapping
// pfs.ErrTransient so the file system's retry layer absorbs them. The wrap
// order matters: a chaos Backend sits *under* the file system's resilient
// layer (it wraps the raw store inside the factory), whereas the permanent
// pfs.FaultyBackend wraps *outside* it, so only chaos faults are retried.
type Backend struct {
	inner pfs.Backend
	rates Rates

	mu  sync.Mutex
	rng *rand.Rand

	inj pfsInjects
}

// pfsInjects caches the per-kind injection counters.
type pfsInjects struct {
	readErr, writeErr, shortRead, shortWrite, flipRead *dsmon.Counter
}

func newPFSInjects(mon *dsmon.Monitor) pfsInjects {
	k := func(kind string) *dsmon.Counter { return pfsPlane.counter(mon, kind) }
	return pfsInjects{
		readErr: k("read_err"), writeErr: k("write_err"),
		shortRead: k("short_read"), shortWrite: k("short_write"),
		flipRead: silentRead.counter(mon, "flip_read"),
	}
}

// NewBackend wraps inner under the given schedule seed and rates. mon may
// be nil (injections go uncounted).
func NewBackend(inner pfs.Backend, seed int64, rates Rates, mon *dsmon.Monitor) *Backend {
	return &Backend{
		inner: inner,
		rates: rates,
		rng:   rand.New(rand.NewPCG(mix(uint64(seed), 0xd15c), 0xbac7e)),
		inj:   newPFSInjects(mon),
	}
}

// WrapFactory returns a factory whose backends are chaos-wrapped, each file
// drawing from its own PRNG stream derived from the schedule seed and the
// file name (so open order does not change the schedule).
func WrapFactory(factory pfs.BackendFactory, seed int64, rates Rates, mon *dsmon.Monitor) pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) {
		b, err := factory(name)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		return NewBackend(b, seed^int64(h.Sum64()), rates, mon), nil
	}
}

// StripedChaosFactory returns a factory producing striped backends whose k
// children are each chaos-wrapped memory stores with independent PRNG
// streams (derived from the schedule seed, the file name, and the child
// index), so the stripe's concurrent fan-out faces faults on every leg
// *under* the stripe — each child failing on its own schedule, with the
// file system's resilient layer retrying the whole multi-child operation
// above. mon may be nil.
func StripedChaosFactory(k int, unit int64, seed int64, rates Rates, mon *dsmon.Monitor) pfs.BackendFactory {
	return func(name string) (pfs.Backend, error) {
		h := fnv.New64a()
		h.Write([]byte(name))
		base := seed ^ int64(h.Sum64())
		children := make([]pfs.Backend, k)
		for i := range children {
			children[i] = NewBackend(pfs.NewMemBackend(), base+int64(i)*0x9e3779b9, rates, mon)
		}
		return pfs.NewStripedBackend(children, unit)
	}
}

// fault draws one uniform sample and maps it to (errFault, shortFault,
// flip) for an operation on n bytes; cut is the prefix length of a short
// transfer, and flip, when positive, is one more than the bit of the n bytes
// a silent flip inverts. With flipRate zero the draws are the ones before
// the silent kind existed, so every other campaign's schedule is unchanged.
func (b *Backend) fault(errRate, shortRate, flipRate float64, n int) (errFault bool, cut, flip int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.rng.Float64()
	if r < errRate {
		return true, 0, 0
	}
	if r < errRate+shortRate {
		if n > 1 {
			return false, 1 + b.rng.IntN(n-1), 0
		}
		return false, 0, 0 // one byte has no shorter prefix; it is not a flip either
	}
	if r < errRate+shortRate+flipRate && n > 0 {
		return false, 0, 1 + b.rng.IntN(8*n)
	}
	return false, 0, 0
}

// ReadAt implements io.ReaderAt with injected transient faults, and the
// silent bit flip.
func (b *Backend) ReadAt(p []byte, off int64) (int, error) {
	errFault, cut, flip := b.fault(b.rates.ReadErr, b.rates.ShortRead, b.rates.FlipRead, len(p))
	if errFault {
		b.inj.readErr.Inc()
		return 0, fmt.Errorf("%w: chaos read error at %d", pfs.ErrTransient, off)
	}
	if cut > 0 {
		n, err := b.inner.ReadAt(p[:cut], off)
		if err != nil {
			return n, err // a real error (e.g. EOF) outranks the injection
		}
		b.inj.shortRead.Inc()
		return n, fmt.Errorf("%w: chaos short read %d of %d at %d", pfs.ErrTransient, n, len(p), off)
	}
	n, err := b.inner.ReadAt(p, off)
	if flip--; flip >= 0 && flip < 8*n {
		p[flip/8] ^= 1 << (flip % 8)
		b.inj.flipRead.Inc()
	}
	return n, err
}

// WriteAt implements io.WriterAt with injected transient faults.
func (b *Backend) WriteAt(p []byte, off int64) (int, error) {
	errFault, cut, _ := b.fault(b.rates.WriteErr, b.rates.ShortWrite, 0, len(p))
	if errFault {
		b.inj.writeErr.Inc()
		return 0, fmt.Errorf("%w: chaos write error at %d", pfs.ErrTransient, off)
	}
	if cut > 0 {
		n, err := b.inner.WriteAt(p[:cut], off)
		if err != nil {
			return n, err
		}
		b.inj.shortWrite.Inc()
		return n, fmt.Errorf("%w: chaos short write %d of %d at %d", pfs.ErrTransient, n, len(p), off)
	}
	return b.inner.WriteAt(p, off)
}

// Size implements pfs.Backend.
func (b *Backend) Size() int64 { return b.inner.Size() }

// Truncate implements pfs.Backend (no faults: truncate is metadata, and the
// stack's truncate paths have no retry story to exercise — under a stripe
// too, whose truncate is this call on each child and no write).
func (b *Backend) Truncate(size int64) error { return b.inner.Truncate(size) }

// Close implements pfs.Backend.
func (b *Backend) Close() error { return b.inner.Close() }
