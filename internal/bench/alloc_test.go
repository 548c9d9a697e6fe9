package bench

import (
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/vtime"
)

// The allocation pins: exact committed budgets for the four hot paths,
// enforced on every test run (not just when the bench-alloc gate diffs
// BENCH_alloc_baseline.json). The budgets are the measured steady state
// (funnel 14.3, two-phase 69.3, read 27.2 allocs per whole-machine cycle)
// plus about a tenth of scheduler headroom; before pooling they sat at 4
// (enc), 3 (sendrecv), ~139 (funnel cycle) and ~210 (two-phase cycle). The
// gate is a ratchet: a budget goes down when a path gets cheaper and up
// only with the reason written in CHANGES.md — raising one means a hot path
// got slower for every caller.
const (
	encRoundTripBudget    = 0  // allocs/op, reused Buffer+Reader
	inprocSendRecvBudget  = 1  // allocs/op, 1 KiB payload, receiver Puts
	ringRawSendRecvBudget = 1  // allocs/op, raw ring path, 256 B eager payload
	tracedSendRecvBudget  = 4  // same path with spans+flow edges recorded
	funnelCycleBudget     = 16 // whole-machine allocs per insert+write cycle, 4 ranks
	twoPhaseCycleBudget   = 77 // same, with the aggregation shuffle
	readCycleBudget       = 30 // whole-machine allocs per read+extract cycle, 4 ranks
	// redistExchangeBudget is what a sorted read into another layout may add
	// to that cycle, whatever the element count: one alltoallv, 4 ranks.
	redistExchangeBudget  = 24
	funnelCycleByteBudget = 15 << 10
)

func TestEncRoundTripAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	var e enc.Buffer
	var d enc.Reader
	raw := make([]byte, 32)
	avg := testing.AllocsPerRun(500, func() {
		e.Reset()
		e.Uint32(7)
		e.Int64(21)
		e.Float64(3.5)
		e.Bool(true)
		e.Raw(raw)
		d.Reset(e.Bytes())
		_ = d.Uint32()
		_ = d.Int64()
		_ = d.Float64()
		_ = d.Bool()
		_ = d.Raw(32)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if avg > encRoundTripBudget {
		t.Errorf("enc round trip: %.2f allocs/op, budget %d", avg, encRoundTripBudget)
	}
}

func TestInprocSendRecvAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	tr := comm.NewChanTransport(2)
	defer tr.Close()
	var c0, c1 vtime.Clock
	prof := vtime.Paragon()
	ep0 := comm.NewEndpoint(0, 2, tr, &c0, prof)
	ep1 := comm.NewEndpoint(1, 2, tr, &c1, prof)
	payload := make([]byte, 1024)
	// Prime the pool and the mailbox path before pinning.
	for i := 0; i < 8; i++ {
		if err := ep0.Send(1, 42, payload); err != nil {
			t.Fatal(err)
		}
		d, err := ep1.Recv(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(d)
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := ep0.Send(1, 42, payload); err != nil {
			t.Fatal(err)
		}
		d, err := ep1.Recv(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(d)
	})
	if avg > inprocSendRecvBudget {
		t.Errorf("in-proc send/recv: %.2f allocs/op, budget %d", avg, inprocSendRecvBudget)
	}
}

// TestRingRawSendRecvAllocPin pins the raw transport round trip — the
// lock-free ring without endpoint sequencing on top. Slot hand-off, stage,
// and match must allocate nothing in steady state; the one permitted alloc
// is headroom for the pooled payload copy's size-class misses.
func TestRingRawSendRecvAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	tr := comm.NewChanTransport(2)
	defer tr.Close()
	payload := make([]byte, 256)
	roundTrip := func() {
		if err := tr.Send(comm.Message{From: 0, To: 1, Tag: 7, Data: payload}); err != nil {
			t.Fatal(err)
		}
		m, err := tr.Recv(1, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(m.Data)
	}
	// Prime the pool, the ring, and the pending stage before pinning.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(500, roundTrip)
	t.Logf("raw ring send/recv: %.2f allocs/op", avg)
	if avg > ringRawSendRecvBudget {
		t.Errorf("raw ring send/recv: %.2f allocs/op, budget %d", avg, ringRawSendRecvBudget)
	}
}

// TestTracedSendRecvAllocPin pins the cost of turning tracing ON for the
// same hot path TestInprocSendRecvAllocPin measures with it off. Each
// logical message records two spans (Send, Recv), one flow edge, and the
// per-message metric updates; the budget is the committed per-span overhead.
// The nil-monitor fast path is covered by the untraced pin above — tracing
// must cost nothing when disabled and a bounded constant when enabled.
func TestTracedSendRecvAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	mon := dsmon.NewTracing()
	tr := comm.NewChanTransport(2)
	defer tr.Close()
	var c0, c1 vtime.Clock
	prof := vtime.Paragon()
	ep0 := comm.NewEndpoint(0, 2, tr, &c0, prof).SetMonitor(mon)
	ep1 := comm.NewEndpoint(1, 2, tr, &c1, prof).SetMonitor(mon)
	payload := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		if err := ep0.Send(1, 42, payload); err != nil {
			t.Fatal(err)
		}
		d, err := ep1.Recv(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(d)
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := ep0.Send(1, 42, payload); err != nil {
			t.Fatal(err)
		}
		d, err := ep1.Recv(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(d)
	})
	t.Logf("traced send/recv: %.2f allocs/op", avg)
	if avg > tracedSendRecvBudget {
		t.Errorf("traced send/recv: %.2f allocs/op, budget %d", avg, tracedSendRecvBudget)
	}
}

func TestFunnelWriteCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	allocs, bytes, err := writeCycleAllocs(vtime.Paragon(), dstream.StrategyFunnel)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("funnel cycle: %.1f allocs, %.1f B", allocs, bytes)
	if allocs > funnelCycleBudget {
		t.Errorf("funnel insert+write cycle: %.1f allocs, budget %d", allocs, funnelCycleBudget)
	}
	if bytes > funnelCycleByteBudget {
		t.Errorf("funnel insert+write cycle: %.1f B, budget %d", bytes, funnelCycleByteBudget)
	}
}

func TestTwoPhaseWriteCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	allocs, bytes, err := writeCycleAllocs(vtime.Paragon(), dstream.StrategyTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("two-phase cycle: %.1f allocs, %.1f B", allocs, bytes)
	if allocs > twoPhaseCycleBudget {
		t.Errorf("two-phase insert+write cycle: %.1f allocs, budget %d", allocs, twoPhaseCycleBudget)
	}
}

// TestReadCycleAllocPin pins the input side both ways: the synchronous
// read+extract cycle, and the same cycle under WithReadAhead(2). The second
// pin is the structural guarantee of the prefetch pipeline — its buffers
// cycle through the stream's free list, so turning it on must not raise the
// steady-state allocation rate over the synchronous path's budget.
func TestReadCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	for _, depth := range []int{0, 2} {
		allocs, bytes, err := readCycleAllocs(dstream.StrategyParallel, depth, distr.Cyclic, rawElems(allocElems))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("read cycle, depth %d: %.1f allocs, %.1f B", depth, allocs, bytes)
		if allocs > readCycleBudget {
			t.Errorf("read cycle, depth %d: %.1f allocs, budget %d", depth, allocs, readCycleBudget)
		}
	}
}

// TestRedistReadCycleAllocPin pins the sorted read into another layout. It
// sends from its share, decodes inside the received frames and returns them
// to the pool, so what it adds to the same-layout cycle is one exchange per
// record — the alltoallv's result slice and the channels its receives and
// closing barrier park on, about five allocations a rank — and nothing per
// element: with four times the elements the exchange must cost the same.
func TestRedistReadCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	measure := func(rmode distr.Mode, elems int) float64 {
		allocs, bytes, err := readCycleAllocs(dstream.StrategyParallel, 0, rmode, rawElems(elems))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("CYCLIC→%v, %d elements: %.1f allocs, %.1f B", rmode, elems, allocs, bytes)
		return allocs
	}
	for _, elems := range []int{allocElems, 4 * allocElems} {
		same, redist := measure(distr.Cyclic, elems), measure(distr.Block, elems)
		if redist > same+redistExchangeBudget {
			t.Errorf("%d elements: redistributing read %.1f allocs per record, same-layout read %.1f, budget for the exchange %d",
				elems, redist, same, redistExchangeBudget)
		}
	}
}

// TestChannelCycleAllocPin pins the stream-to-stream channel's steady state
// at funnel-or-better: a record hand-off through the channel (both the
// send-facing and the full-extraction cycle) must not out-allocate the
// funnel insert+write cycle it replaces — the channel exists to be the
// cheaper path, and an allocation-per-frame bug would erase that.
func TestChannelCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	for name, extract := range map[string]bool{"dstream_chan_send": false, "dstream_chan_recv": true} {
		allocs, bytes, err := channelCycleAllocs(allocElemSize, false, extract)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.1f allocs, %.1f B", name, allocs, bytes)
		if allocs > funnelCycleBudget {
			t.Errorf("%s cycle: %.1f allocs, budget %d (funnel-or-better)", name, allocs, funnelCycleBudget)
		}
		if bytes > funnelCycleByteBudget {
			t.Errorf("%s cycle: %.1f B, budget %d", name, bytes, funnelCycleByteBudget)
		}
	}
}

// TestCheckAllocRegression exercises the CI gate logic itself.
func TestCheckAllocRegression(t *testing.T) {
	base := []AllocCell{{Name: "x", AllocsPerOp: 10, BytesPerOp: 1000}}
	if err := CheckAllocRegression([]AllocCell{{Name: "x", AllocsPerOp: 10.5, BytesPerOp: 1050}}, base); err != nil {
		t.Errorf("within 10%%: %v", err)
	}
	if err := CheckAllocRegression([]AllocCell{{Name: "x", AllocsPerOp: 12, BytesPerOp: 1000}}, base); err == nil {
		t.Error("20% allocs regression passed the gate")
	}
	if err := CheckAllocRegression([]AllocCell{{Name: "x", AllocsPerOp: 10, BytesPerOp: 1200}}, base); err == nil {
		t.Error("20% bytes regression passed the gate")
	}
	// Zero baselines get absolute slack so noise does not hard-fail.
	zero := []AllocCell{{Name: "z"}}
	if err := CheckAllocRegression([]AllocCell{{Name: "z", AllocsPerOp: 0.5, BytesPerOp: 32}}, zero); err != nil {
		t.Errorf("absolute slack on zero baseline: %v", err)
	}
	// A benchmark with no baseline entry is not a failure.
	if err := CheckAllocRegression([]AllocCell{{Name: "new", AllocsPerOp: 99}}, base); err != nil {
		t.Errorf("missing baseline treated as regression: %v", err)
	}
}
