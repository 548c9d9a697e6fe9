package pfs

import "errors"

// DefaultStripeUnit is the stripe cell size assumed for backends that do not
// expose their geometry — the 64 KB default stripe unit of the Paragon PFS.
const DefaultStripeUnit int64 = 64 << 10

// Layout describes the stripe geometry of the storage behind one file: how
// many devices (I/O nodes) the image is dealt across and the cell size of
// the deal. Collective-I/O engines use it to pick aggregator counts and to
// align extents so one aggregator's write maps to whole stripe cells —
// exactly the "knowledge of parallel I/O, disk striping, and memory
// alignment" §2 says raw interfaces demand and the library should
// encapsulate.
type Layout struct {
	// StripeUnit is the bytes per stripe cell.
	StripeUnit int64
	// StripeFactor is the number of stripe devices the file is dealt across.
	StripeFactor int
}

// LayoutProvider is implemented by backends that know their stripe
// geometry (notably StripedBackend). Backends that don't are reported with
// the file system's default geometry.
type LayoutProvider interface {
	Layout() Layout
}

// Layout returns the stripe geometry of the file behind this handle. If the
// backend exposes its real geometry that is returned; otherwise the
// geometry defaults to the platform profile's I/O channel count with the
// default stripe unit, so strategy choices degrade gracefully on flat
// backends. No virtual time is charged: the geometry is mount-time
// knowledge, not a metadata round trip.
func (h *File) Layout() Layout {
	if lp, ok := h.f.b.(LayoutProvider); ok {
		if l := lp.Layout(); l.StripeFactor > 0 && l.StripeUnit > 0 {
			return l
		}
	}
	c := h.fs.prof.IOChannels
	if c <= 0 {
		c = 1
	}
	return Layout{StripeUnit: DefaultStripeUnit, StripeFactor: c}
}

// Layout implements LayoutProvider by delegating to the wrapped backend, so
// the retry layer is transparent to geometry queries. A backend without
// geometry yields the zero Layout, which File.Layout treats as unknown.
func (rb *resilientBackend) Layout() Layout {
	if lp, ok := rb.Backend.(LayoutProvider); ok {
		return lp.Layout()
	}
	return Layout{}
}

// BufferSource is implemented by backends that can supply a read's
// destination or a write's source: memory their ReadAt fills in place, or
// their WriteAt stores from in place, where a buffer of the caller's would
// take a copy out of it or into it (dstreamd's same-host client hands out
// runs of the shared chunks its daemon reads the store into and writes it
// from). Buffer returns at least n bytes, or nil when it has none to give;
// Release takes back a buffer Buffer returned. Such a buffer is never the
// pool's.
//
// A backend may withdraw such a buffer: its ReadAt into one then fails with
// ErrWithdrawn, and the reader releases it and reads into one of its own.
// dstreamd's client does so when the connection whose chunks the buffer is
// was cut with the read in flight, since a request of the dead connection may
// still land in those chunks.
type BufferSource interface {
	Buffer(n int) []byte
	Release(b []byte)
}

// ErrWithdrawn is the error of a ReadAt into a BufferSource's buffer that its
// backend can no longer fill in place (see BufferSource). It is not
// transient: the retry layer hands it straight up.
var ErrWithdrawn = errors.New("pfs: read buffer withdrawn")

// Buffer forwards to the wrapped backend, so the retry layer is transparent
// to a backend that supplies buffers; any other backend has none.
func (rb *resilientBackend) Buffer(n int) []byte {
	if bs, ok := rb.Backend.(BufferSource); ok {
		return bs.Buffer(n)
	}
	return nil
}

// Release forwards to the wrapped backend, the only one Buffer hands out
// for.
func (rb *resilientBackend) Release(b []byte) {
	rb.Backend.(BufferSource).Release(b)
}
