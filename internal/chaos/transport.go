package chaos

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
)

// Transport wraps any comm.Transport with a seeded schedule of per-message
// transient faults: drops, duplicated / delayed / reordered deliveries, and
// injected send/receive errors. Each sending and receiving rank draws from
// its own deterministic PRNG stream derived from the schedule seed, so a
// seed fully determines which operations fault (though not the goroutine
// interleaving around them). All faults but one are transient — the
// endpoints' sequence numbers and retry budgets are expected to absorb them;
// the one, a bit flipped in flight (Rates.FlipSend), is silent — and every
// injection is counted under chaos_comm_inject_total{kind=…}.
type Transport struct {
	inner comm.Transport
	rates Rates

	sendLanes []*lane // indexed by sender rank
	recvLanes []*lane // indexed by receiver rank

	inj commInjects
}

// lane is one rank's fault state: its PRNG stream plus (for send lanes)
// the reorder hold slot.
type lane struct {
	mu   sync.Mutex
	rng  *rand.Rand
	held *comm.Message // a reordered message awaiting release
	fuse *time.Timer
}

// commInjects caches the per-kind injection counters.
type commInjects struct {
	drop, sendErr, dup, delay, reorder, recvErr, flipSend *dsmon.Counter
}

func newCommInjects(mon *dsmon.Monitor) commInjects {
	k := func(kind string) *dsmon.Counter { return commPlane.counter(mon, kind) }
	return commInjects{
		drop: k("drop"), sendErr: k("send_err"), dup: k("duplicate"),
		delay: k("delay"), reorder: k("reorder"), recvErr: k("recv_err"),
		flipSend: silentSend.counter(mon, "flip_send"),
	}
}

// NewTransport wraps inner for a machine of size ranks under the given
// schedule seed and rates. mon may be nil (injections go uncounted).
func NewTransport(inner comm.Transport, size int, seed int64, rates Rates, mon *dsmon.Monitor) *Transport {
	t := &Transport{
		inner:     inner,
		rates:     rates,
		sendLanes: make([]*lane, size),
		recvLanes: make([]*lane, size),
		inj:       newCommInjects(mon),
	}
	for i := 0; i < size; i++ {
		t.sendLanes[i] = &lane{rng: rand.New(rand.NewPCG(mix(uint64(seed), uint64(i)+1), 0x5e17d))}
		t.recvLanes[i] = &lane{rng: rand.New(rand.NewPCG(mix(uint64(seed), uint64(size+i)+1), 0x12ec7))}
	}
	return t
}

// copyMsg returns m with its payload copied, so a delivery deferred past
// Send's return cannot observe the caller reusing its buffer.
func copyMsg(m comm.Message) comm.Message {
	if m.Data != nil {
		d := make([]byte, len(m.Data))
		copy(d, m.Data)
		m.Data = d
	}
	return m
}

// Send implements comm.Transport, injecting at most one fault per message.
//
// An owned or lent message (comm.Message.Mode) is sent as a borrowed one,
// and an owned one is released here once Send has succeeded. The faults are
// why: a delayed or reordered delivery outlives the call, a duplicate is two
// deliveries, and a send error delivers the message and tells the sender to
// send it again — a buffer handed to the receiver on any of those paths would
// have two owners, or a reader past its lender's fence. Every path below
// copies what it delivers, so the caller's buffer is still whole on an error
// return and, on a nil one, nobody's if it was owned and its lender's if lent.
func (t *Transport) Send(m comm.Message) error {
	mode := m.Mode
	m.Mode = comm.Borrowed
	err := t.send(m)
	if err == nil && mode == comm.Owned {
		bufpool.Put(m.Data)
	}
	return err
}

func (t *Transport) send(m comm.Message) error {
	if m.From < 0 || m.From >= len(t.sendLanes) {
		return t.inner.Send(m) // let the inner transport report the bad rank
	}
	ln := t.sendLanes[m.From]
	ln.mu.Lock()
	r := ln.rng.Float64()
	rt := t.rates

	switch {
	case r < rt.Drop:
		// Detected loss: nothing is delivered; the sender hears about it.
		held := ln.takeHeld()
		ln.mu.Unlock()
		t.flush(held)
		t.inj.drop.Inc()
		return fmt.Errorf("%w: chaos dropped message %d→%d tag %#x", comm.ErrTransient, m.From, m.To, m.Tag)

	case r < rt.Drop+rt.SendErr:
		// The message arrives but the sender is told it failed, so its
		// retry will manufacture a duplicate for the receiver to suppress.
		held := ln.takeHeld()
		ln.mu.Unlock()
		if err := t.inner.Send(m); err != nil {
			t.flush(held)
			return err
		}
		t.flush(held)
		t.inj.sendErr.Inc()
		return fmt.Errorf("%w: chaos send error %d→%d tag %#x (message delivered)", comm.ErrTransient, m.From, m.To, m.Tag)

	case r < rt.Drop+rt.SendErr+rt.Duplicate:
		held := ln.takeHeld()
		ln.mu.Unlock()
		if err := t.inner.Send(m); err != nil {
			t.flush(held)
			return err
		}
		t.inj.dup.Inc()
		t.inner.Send(copyMsg(m)) // best-effort second copy
		t.flush(held)
		return nil

	case r < rt.Drop+rt.SendErr+rt.Duplicate+rt.Delay:
		// Deliver late from a background goroutine. The sender believes the
		// message is in flight (it is), so no error.
		d := time.Duration(1 + ln.rng.Int64N(int64(maxDur(rt.MaxDelay))))
		held := ln.takeHeld()
		ln.mu.Unlock()
		t.flush(held)
		t.inj.delay.Inc()
		cp := copyMsg(m)
		time.AfterFunc(d, func() { t.inner.Send(cp) })
		return nil

	case r < rt.Drop+rt.SendErr+rt.Duplicate+rt.Delay+rt.Reorder:
		// Hold this message; the lane's next send releases it afterwards,
		// swapping wire order. A fuse timer bounds the hold in real time so
		// a lane that never sends again cannot starve its receiver.
		prev := ln.takeHeld()
		cp := copyMsg(m)
		ln.held = &cp
		ln.fuse = time.AfterFunc(maxDur(rt.ReorderFuse), func() {
			ln.mu.Lock()
			late := ln.takeHeld()
			ln.mu.Unlock()
			t.flush(late)
		})
		ln.mu.Unlock()
		t.flush(prev)
		t.inj.reorder.Inc()
		return nil

	case r < rt.Drop+rt.SendErr+rt.Duplicate+rt.Delay+rt.Reorder+rt.FlipSend && len(m.Data) > 0:
		// Deliver a copy with one bit inverted and report success. The copy
		// is given to the inner transport, which delivers it as it is.
		bit := ln.rng.IntN(8 * len(m.Data))
		held := ln.takeHeld()
		ln.mu.Unlock()
		m.Data, m.Mode = append(bufpool.GetCap(len(m.Data)), m.Data...), comm.Owned
		m.Data[bit/8] ^= 1 << (bit % 8)
		if err := t.inner.Send(m); err != nil {
			bufpool.Put(m.Data)
			t.flush(held)
			return err
		}
		t.flush(held)
		t.inj.flipSend.Inc()
		return nil

	default:
		held := ln.takeHeld()
		ln.mu.Unlock()
		if err := t.inner.Send(m); err != nil {
			t.flush(held)
			return err
		}
		t.flush(held)
		return nil
	}
}

// takeHeld detaches the lane's held message (if any) and stops its fuse.
// Callers hold ln.mu.
func (ln *lane) takeHeld() *comm.Message {
	h := ln.held
	ln.held = nil
	if ln.fuse != nil {
		ln.fuse.Stop()
		ln.fuse = nil
	}
	return h
}

// flush delivers a previously held message, best-effort: by the time a
// reordered message is released the run may already be tearing down, and a
// closed transport just means nobody is left to care.
func (t *Transport) flush(h *comm.Message) {
	if h != nil {
		t.inner.Send(*h)
	}
}

// recvFault draws the receive-side fault decision for rank to.
func (t *Transport) recvFault(to, from int, tag uint64) error {
	if to < 0 || to >= len(t.recvLanes) {
		return nil
	}
	ln := t.recvLanes[to]
	ln.mu.Lock()
	fault := ln.rng.Float64() < t.rates.RecvErr
	ln.mu.Unlock()
	if !fault {
		return nil
	}
	t.inj.recvErr.Inc()
	return fmt.Errorf("%w: chaos receive error on rank %d (from %d tag %#x)", comm.ErrTransient, to, from, tag)
}

// Recv implements comm.Transport.
func (t *Transport) Recv(to, from int, tag uint64) (comm.Message, error) {
	if err := t.recvFault(to, from, tag); err != nil {
		return comm.Message{}, err
	}
	return t.inner.Recv(to, from, tag)
}

// RecvWithin implements comm.DeadlineRecver when the wrapped transport
// does; otherwise it degrades to an unbounded Recv.
func (t *Transport) RecvWithin(to, from int, tag uint64, timeout time.Duration) (comm.Message, error) {
	if err := t.recvFault(to, from, tag); err != nil {
		return comm.Message{}, err
	}
	if dr, ok := t.inner.(comm.DeadlineRecver); ok {
		return dr.RecvWithin(to, from, tag, timeout)
	}
	return t.inner.Recv(to, from, tag)
}

// Close implements comm.Transport. Held and in-flight delayed messages are
// abandoned; the run is over.
func (t *Transport) Close() error {
	for _, ln := range t.sendLanes {
		ln.mu.Lock()
		ln.takeHeld()
		ln.mu.Unlock()
	}
	return t.inner.Close()
}

// maxDur clamps a configured duration to at least one millisecond so a
// zero-valued Rates cannot produce a zero-length timer interval.
func maxDur(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Millisecond
	}
	return d
}
