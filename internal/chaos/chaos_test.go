package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// drainInjects snapshots every chaos counter of a monitor.
func drainInjects(mon *dsmon.Monitor) map[string]int64 {
	return injectCounts(mon)
}

// TestTransportDeterministicSchedule: the same seed over the same
// single-goroutine send sequence injects exactly the same faults.
func TestTransportDeterministicSchedule(t *testing.T) {
	run := func(seed int64) map[string]int64 {
		mon := dsmon.New()
		tr := NewTransport(comm.NewChanTransport(2), 2, seed, DefaultRates(), mon)
		for i := 0; i < 400; i++ {
			tr.Send(comm.Message{From: 0, To: 1, Tag: 7, Seq: uint64(i + 1), Data: []byte{byte(i)}})
		}
		tr.Close()
		return drainInjects(mon)
	}
	a, b := run(42), run(42)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("kind %s: first run %d, second run %d", k, v, b[k])
		}
	}
	c := run(43)
	same := true
	for k, v := range a {
		if c[k] != v {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestTransportFaultsAreTransient: every error a chaos transport surfaces
// wraps comm.ErrTransient, so endpoints know they may retry.
func TestTransportFaultsAreTransient(t *testing.T) {
	tr := NewTransport(comm.NewChanTransport(2), 2, 7, DefaultRates(), nil)
	defer tr.Close()
	for i := 0; i < 500; i++ {
		if err := tr.Send(comm.Message{From: 0, To: 1, Tag: 1, Seq: uint64(i + 1)}); err != nil {
			if !comm.IsTransient(err) {
				t.Fatalf("send fault not transient: %v", err)
			}
		}
	}
}

// TestEndpointSurvivesChaos: a sequenced endpoint pair over a chaotic
// transport delivers every payload exactly once, in order — duplicates
// suppressed, drops retried, reorders reassembled.
func TestEndpointSurvivesChaos(t *testing.T) {
	const n = 300
	for seed := int64(1); seed <= 3; seed++ {
		base := comm.NewChanTransport(2)
		tr := NewTransport(base, 2, seed, DefaultRates(), nil)
		prof := vtime.Paragon()
		var c0, c1 vtime.Clock
		snd := comm.NewEndpoint(0, 2, tr, &c0, prof)
		rcv := comm.NewEndpoint(1, 2, tr, &c1, prof).SetRecvDeadline(2 * time.Second)

		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := snd.Send(1, 9, []byte(fmt.Sprintf("m%04d", i))); err != nil {
					errc <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < n; i++ {
			got, err := rcv.Recv(0, 9)
			if err != nil {
				t.Fatalf("seed %d: recv %d: %v", seed, i, err)
			}
			if want := fmt.Sprintf("m%04d", i); string(got) != want {
				t.Fatalf("seed %d: message %d = %q, want %q (reorder/dup leaked through)", seed, i, got, want)
			}
			bufpool.Put(got)
		}
		if err := <-errc; err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr.Close()
	}
}

// TestBackendFaultsAreTransient: every chaos storage error wraps
// pfs.ErrTransient, and short transfers report their true progress.
func TestBackendFaultsAreTransient(t *testing.T) {
	b := NewBackend(pfs.NewMemBackend(), 11, DefaultRates(), nil)
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < 300; i++ {
		n, err := b.WriteAt(buf, int64(i))
		if err != nil {
			if !pfs.IsTransient(err) {
				t.Fatalf("write fault not transient: %v", err)
			}
			if n < 0 || n > len(buf) {
				t.Fatalf("short write reported n=%d", n)
			}
		} else if n != len(buf) {
			t.Fatalf("clean write reported n=%d of %d", n, len(buf))
		}
	}
	for i := 0; i < 300; i++ {
		p := make([]byte, 64)
		n, err := b.ReadAt(p, int64(i))
		if err != nil {
			// A read may surface the inner backend's genuine io.EOF (reads
			// near the end of the image); anything else must be transient.
			if !pfs.IsTransient(err) && !errors.Is(err, io.EOF) {
				t.Fatalf("read fault neither transient nor EOF: %v", err)
			}
			if n < 0 || n > len(p) {
				t.Fatalf("short read reported n=%d", n)
			}
		}
	}
}

// TestOneByteReadIsNeverFlippedAtRateZero: a one-byte read whose draw lands in
// the short-read slice has no shorter prefix to return; with FlipRead zero it
// must come back whole and unflipped, not fall through to the flip.
func TestOneByteReadIsNeverFlippedAtRateZero(t *testing.T) {
	mon := dsmon.New()
	inner := pfs.NewMemBackend()
	if _, err := inner.WriteAt([]byte{0x5a}, 0); err != nil {
		t.Fatal(err)
	}
	b := NewBackend(inner, 3, Rates{ShortRead: 1}, mon)
	for i := 0; i < 100; i++ {
		p := []byte{0}
		if n, err := b.ReadAt(p, 0); n != 1 || err != nil || p[0] != 0x5a {
			t.Fatalf("one-byte read: n=%d err=%v byte %#x, want 1, nil, 0x5a", n, err, p[0])
		}
	}
	if n := silentRead.counter(mon, "flip_read").Value(); n != 0 {
		t.Errorf("%d flips injected at FlipRead = 0", n)
	}
}

// TestResilientFSAbsorbsChaos: a FileSystem whose factory is chaos-wrapped
// still round-trips bytes exactly, and accounts the retries it spent.
func TestResilientFSAbsorbsChaos(t *testing.T) {
	rates := DefaultRates()
	fs := pfs.NewFileSystem(vtime.Paragon(), WrapFactory(pfs.MemFactory(), 5, rates, nil))
	var clk vtime.Clock
	h, err := fs.Open("f", 1, 0, &clk, true)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i * 31)
	}
	const chunk = 1024
	for off := 0; off < len(want); off += chunk {
		if err := h.WriteAt(want[off:off+chunk], int64(off)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	got := make([]byte, len(want))
	for off := 0; off < len(got); off += chunk {
		if err := h.ReadAt(got[off:off+chunk], int64(off)); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip through chaotic backend corrupted data")
	}
	if fs.Stats().IORetries == 0 {
		t.Error("no IO retries recorded — chaos rates injected nothing?")
	}
}

// TestStripedTruncateDrawsNoFaults: "truncate is metadata" holds under the
// stripe as well — a striped store whose every child write would fault still
// truncates, up and down, without drawing from any child's schedule (it once
// wrote the range out in zeros through the children).
func TestStripedTruncateDrawsNoFaults(t *testing.T) {
	mon := dsmon.New()
	b, err := StripedChaosFactory(3, 16, 7, Rates{WriteErr: 1}, mon)("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{1 << 16, 100, 0} {
		if err := b.Truncate(size); err != nil {
			t.Fatalf("Truncate(%d): %v", size, err)
		}
		if b.Size() != size {
			t.Fatalf("Size = %d after Truncate(%d)", b.Size(), size)
		}
	}
	for kind, n := range injectCounts(mon) {
		if n != 0 {
			t.Errorf("truncates drew %d %s faults", n, kind)
		}
	}
}

// TestBackendDeterministicPerName: the factory derives each file's PRNG
// stream from the name, so open order cannot change a file's schedule.
func TestBackendDeterministicPerName(t *testing.T) {
	count := func(openOrder []string) map[string]int64 {
		mon := dsmon.New()
		f := WrapFactory(pfs.MemFactory(), 99, DefaultRates(), mon)
		for _, name := range openOrder {
			b, err := f(name)
			if err != nil {
				t.Fatal(err)
			}
			p := make([]byte, 128)
			for i := 0; i < 200; i++ {
				b.WriteAt(p, int64(i))
			}
		}
		return injectCounts(mon)
	}
	a := count([]string{"x", "y"})
	b := count([]string{"y", "x"})
	for k, v := range a {
		if b[k] != v {
			t.Errorf("kind %s: order x,y → %d but y,x → %d", k, v, b[k])
		}
	}
}
