package comm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/vtime"
)

// The mailbox torture suite: the linearizability properties the lock-free
// rings must uphold — per-sender FIFO, no loss, no duplication — hammered
// with 1k-message bursts, randomized scheduling jitter, mixed eager/bulk
// payloads, and delayed consumers (so the bursts overflow the 128-slot
// rings and exercise the spill path's ordering guard). Run under -race in
// `make check`, where the detector turns any unsynchronized slot access
// into a hard failure.

// tortureJitter perturbs the goroutine schedule: mostly yields, sometimes
// a real sleep, driven by the sender's private seeded RNG so runs vary
// across seeds but one failure is reproducible from its seed.
func tortureJitter(rng *rand.Rand) {
	switch rng.Intn(20) {
	case 0:
		time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
	case 1, 2, 3, 4, 5:
		runtime.Gosched()
	}
}

// torturePayload builds the self-describing payload for message i of
// sender s: the index, the sender, and a size chosen by class — small
// (eager path), occasionally bulk (rendezvous path) for mixed senders.
func torturePayload(s, i int, bulk bool) []byte {
	size := 16
	if bulk {
		size = eagerMaxBytes + 512
	}
	p := make([]byte, size)
	binary.LittleEndian.PutUint32(p, uint32(i))
	binary.LittleEndian.PutUint32(p[4:], uint32(s))
	p[8] = byte(i * s) // a content byte past the header, checked on receive
	return p
}

func checkTorturePayload(s, i int, d []byte) error {
	if got := int(binary.LittleEndian.Uint32(d)); got != i {
		return fmt.Errorf("sender %d message %d: index %d out of order", s, i, got)
	}
	if got := int(binary.LittleEndian.Uint32(d[4:])); got != s {
		return fmt.Errorf("sender %d message %d: carries sender %d", s, i, got)
	}
	if d[8] != byte(i*s) {
		return fmt.Errorf("sender %d message %d: content corrupted", s, i)
	}
	return nil
}

// TestMailboxTortureRawFIFO drives the raw transport (Seq 0 — no
// reassembly safety net) with four concurrent 1k bursts into one rank. The
// consumers start late, so every burst overflows its 128-slot ring into
// the overflow list and back; delivery must still be exactly the send
// order, with every message delivered exactly once. One sender is
// all-bulk, so the rendezvous backpressure path runs concurrently with
// the eager spills.
func TestMailboxTortureRawFIFO(t *testing.T) {
	const (
		senders = 4
		burst   = 1000
	)
	tr := NewChanTransport(senders + 1)
	defer tr.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2*senders)
	start := make(chan struct{})
	// Eager senders signal once they are far past ring capacity, and their
	// consumers hold off until then — so every eager burst provably
	// overruns its 128-slot ring into the overflow, under any scheduler
	// (including the slowed-down -race and pooldebug builds). The all-bulk
	// sender gets no such gate: it must block on its full ring instead. The
	// mixed sender sends bulk only past the overrun, once its consumer runs:
	// a bulk send before it could block on the full ring its consumer is
	// not yet draining, and both would wait for ever.
	const overrun = 3 * defaultRingCap
	ahead := make([]chan struct{}, senders+1)
	for s := 1; s < senders; s++ {
		ahead[s] = make(chan struct{})
	}
	for s := 1; s <= senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			<-start
			for i := 0; i < burst; i++ {
				bulk := s == senders || (s%2 == 0 && i%13 == 0 && i > overrun)
				if err := tr.Send(Message{From: s, To: 0, Tag: 0x70, Data: torturePayload(s, i, bulk)}); err != nil {
					errs <- fmt.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
				if s < senders && i == overrun {
					close(ahead[s])
				}
				tortureJitter(rng)
			}
		}()
	}
	// One consumer goroutine per sender stream: concurrent receivers on the
	// same mailbox are part of the contract (collective trees do this).
	for s := 1; s <= senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + s)))
			<-start
			if s < senders {
				<-ahead[s] // the burst has overrun the ring; start consuming
			} else {
				// Give the all-bulk sender time to fill its ring and park on
				// the backpressure path before draining it.
				time.Sleep(2 * time.Millisecond)
			}
			for i := 0; i < burst; i++ {
				m, err := tr.Recv(0, s, 0x70)
				if err != nil {
					errs <- fmt.Errorf("recv from %d message %d: %v", s, i, err)
					return
				}
				perr := checkTorturePayload(s, i, m.Data)
				bufpool.Put(m.Data)
				if perr != nil {
					errs <- perr
					// The test has failed; keep draining so blocked bulk
					// senders can finish and the test reports instead of
					// timing out.
					for i++; i < burst; i++ {
						if m, err := tr.Recv(0, s, 0x70); err == nil {
							bufpool.Put(m.Data)
						} else {
							return
						}
					}
					return
				}
				tortureJitter(rng)
			}
			// No extras: the stream must be exactly drained. A duplicate
			// would surface here (or as an out-of-order index above).
			if _, err := tr.boxes[0].getWithin(s, 0x70, 20*time.Millisecond); err == nil {
				errs <- fmt.Errorf("sender %d: message beyond the burst — duplication", s)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := tr.RingStats()
	t.Logf("ring stats: %+v", st)
	if st.Spills == 0 {
		t.Error("torture burst never spilled — the overflow ordering path went unexercised")
	}
	if st.RingPuts == 0 {
		t.Error("torture burst never used the ring fast path")
	}
}

// TestMailboxTortureSequenced runs the same burst shape through Endpoints
// (Seq != 0, the machine's real path): sequencing, dedup, and reassembly
// sit on top of the rings and the result must still be exactly-once
// in-order per stream.
func TestMailboxTortureSequenced(t *testing.T) {
	const (
		senders = 3
		burst   = 1000
	)
	tr := NewChanTransport(senders + 1)
	defer tr.Close()
	prof := vtime.Paragon()

	var wg sync.WaitGroup
	errs := make(chan error, senders+1)
	for s := 1; s <= senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clk vtime.Clock
			ep := NewEndpoint(s, senders+1, tr, &clk, prof)
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < burst; i++ {
				p := torturePayload(s, i, s%3 == 0 && i%17 == 0)
				if err := ep.Send(0, 0x71, p); err != nil {
					errs <- fmt.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
				tortureJitter(rng)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var clk vtime.Clock
		ep := NewEndpoint(0, senders+1, tr, &clk, prof)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < burst; i++ {
			for s := 1; s <= senders; s++ {
				d, err := ep.Recv(s, 0x71)
				if err != nil {
					errs <- fmt.Errorf("recv from %d message %d: %v", s, i, err)
					return
				}
				perr := checkTorturePayload(s, i, d)
				bufpool.Put(d)
				if perr != nil {
					errs <- perr
					// Drain the rest so blocked senders finish and the test
					// reports instead of timing out.
					drain := func(u int) bool {
						d, err := ep.Recv(u, 0x71)
						if err == nil {
							bufpool.Put(d)
						}
						return err == nil
					}
					for u := s + 1; u <= senders; u++ {
						if !drain(u) {
							return
						}
					}
					for r := i + 1; r < burst; r++ {
						for u := 1; u <= senders; u++ {
							if !drain(u) {
								return
							}
						}
					}
					return
				}
			}
			tortureJitter(rng)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
