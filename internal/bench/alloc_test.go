package bench

import (
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/vtime"
)

// The allocation pins: exact committed budgets for the four hot paths,
// enforced on every test run (not just when the bench-alloc gate diffs
// BENCH_alloc_baseline.json). The budgets are the measured steady state
// (funnel 23.8, two-phase 86.0, read 48.6 allocs per whole-machine cycle)
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
	funnelCycleBudget     = 27 // whole-machine allocs per insert+write cycle, 4 ranks
	twoPhaseCycleBudget   = 95 // same, with the aggregation shuffle
	readCycleBudget       = 54 // whole-machine allocs per read+extract cycle, 4 ranks
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
	cell, err := machineCycleAllocs(dstream.StrategyFunnel)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("funnel cycle: %.1f allocs, %.1f B", cell.AllocsPerOp, cell.BytesPerOp)
	if cell.AllocsPerOp > funnelCycleBudget {
		t.Errorf("funnel insert+write cycle: %.1f allocs, budget %d", cell.AllocsPerOp, funnelCycleBudget)
	}
	if cell.BytesPerOp > funnelCycleByteBudget {
		t.Errorf("funnel insert+write cycle: %.1f B, budget %d", cell.BytesPerOp, funnelCycleByteBudget)
	}
}

func TestTwoPhaseWriteCycleAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins stand down under -race")
	}
	if testing.Short() {
		t.Skip("machine-level pin skipped in -short mode")
	}
	cell, err := machineCycleAllocs(dstream.StrategyTwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("two-phase cycle: %.1f allocs, %.1f B", cell.AllocsPerOp, cell.BytesPerOp)
	if cell.AllocsPerOp > twoPhaseCycleBudget {
		t.Errorf("two-phase insert+write cycle: %.1f allocs, budget %d", cell.AllocsPerOp, twoPhaseCycleBudget)
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
		cell, err := machineReadCycleAllocs(dstream.StrategyParallel, depth)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.1f allocs, %.1f B", cell.Name, cell.AllocsPerOp, cell.BytesPerOp)
		if cell.AllocsPerOp > readCycleBudget {
			t.Errorf("%s cycle: %.1f allocs, budget %d", cell.Name, cell.AllocsPerOp, readCycleBudget)
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
	for _, extract := range []bool{false, true} {
		cell, err := channelCycleAllocs(extract)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.1f allocs, %.1f B", cell.Name, cell.AllocsPerOp, cell.BytesPerOp)
		if cell.AllocsPerOp > funnelCycleBudget {
			t.Errorf("%s cycle: %.1f allocs, budget %d (funnel-or-better)", cell.Name, cell.AllocsPerOp, funnelCycleBudget)
		}
		if cell.BytesPerOp > funnelCycleByteBudget {
			t.Errorf("%s cycle: %.1f B, budget %d", cell.Name, cell.BytesPerOp, funnelCycleByteBudget)
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
