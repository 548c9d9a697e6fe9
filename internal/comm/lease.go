package comm

import (
	"sync"
	"sync/atomic"

	"pcxxstreams/internal/bufpool"
)

// Lease is the fence for a payload lent to readers its lender cannot wait
// for: a count, in shared memory, of who still reads one or two pooled
// buffers. The lender arms it over the buffers with itself as the one reader
// and lends parts of them with Endpoint.SendOnceLent; on the in-process
// transport each receiver handed such a part takes a hold inside RecvLent,
// before the exchange that carried it can close, so a hold always comes
// before the lender's own release. Every reader, the lender included, calls
// Release once it stops reading, and whoever releases last gives the buffers
// back to the pool. It costs no message and no virtual time. A transport that
// copies delivers bytes no lease covers, so there the lender is the only
// reader.
//
// The zero Lease is idle. A lender may arm a lease again once Idle reports
// it; the count is what tells, not the lender's own release.
type Lease struct {
	readers atomic.Int32
	busy    atomic.Bool
	bufs    [2][]byte
}

// leases finds the lease a lent payload lies under by its bytes: every
// buffer an armed lease covers is entered by the last byte its capacity
// reaches, which every slice of the buffer taken without a capacity limit
// shares. So a Message needs no field for its lease — it is stored by value
// in every mailbox, and eight more bytes there are eight more bytes for
// every message — and a copy, a wire transport's or a wrapper's, has none.
var leases struct {
	sync.Mutex
	by map[*byte]*Lease
}

// tail is the last byte b's capacity reaches, nil for no capacity.
func tail(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:cap(b)][cap(b)-1]
}

// leaseOf returns the armed lease whose buffers b lies in, or nil.
func leaseOf(b []byte) *Lease {
	t := tail(b)
	if t == nil {
		return nil
	}
	leases.Lock()
	defer leases.Unlock()
	return leases.by[t]
}

// Arm starts an idle lease over a and b, pooled buffers the caller gives up
// to it (either may be nil), with the caller as its one reader. A payload
// lent from either must be a slice of it that runs to its end, as any slice
// taken without a capacity limit does.
func (l *Lease) Arm(a, b []byte) {
	l.bufs = [2][]byte{a, b}
	l.readers.Store(1)
	l.busy.Store(true)
	leases.Lock()
	if leases.by == nil {
		leases.by = map[*byte]*Lease{}
	}
	for _, b := range l.bufs {
		if t := tail(b); t != nil {
			leases.by[t] = l
		}
	}
	leases.Unlock()
}

// Idle reports whether the lease's buffers have gone back and it may be
// armed again.
func (l *Lease) Idle() bool { return !l.busy.Load() }

// hold adds a reader; RecvLent takes one for each lent payload it delivers.
func (l *Lease) hold() { l.readers.Add(1) }

// Release drops the caller's hold; the last one gives the buffers back to
// the pool. Nil is a no-op.
func (l *Lease) Release() {
	if l == nil || l.readers.Add(-1) != 0 {
		return
	}
	l.forget() // before another owner can draw a buffer and arm it
	for i, b := range l.bufs {
		bufpool.Put(b)
		l.bufs[i] = nil
	}
	l.busy.Store(false)
}

// Abandon is the lender's release after an exchange that failed: it cannot
// know whether a receiver still reads the buffers, so it hands them to the
// garbage collector (bufpool.Drop) and then drops its hold, and the last
// release gives nothing back.
func (l *Lease) Abandon() {
	l.forget()
	for i, b := range l.bufs {
		bufpool.Drop(b)
		l.bufs[i] = nil
	}
	l.Release()
}

// forget takes the lease's buffers out of the registry.
func (l *Lease) forget() {
	leases.Lock()
	for _, b := range l.bufs {
		if t := tail(b); t != nil {
			delete(leases.by, t)
		}
	}
	leases.Unlock()
}
