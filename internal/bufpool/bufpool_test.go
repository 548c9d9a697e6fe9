package bufpool

import (
	"runtime"
	"strings"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, size int }{
		{0, MinClass},
		{1, MinClass},
		{MinClass, MinClass},
		{MinClass + 1, MinClass * 2},
		{1000, 1024},
		{1024, 1024},
		{1025, 2048},
		{MaxClass, MaxClass},
	}
	for _, c := range cases {
		got := classFor(c.n)
		if got < 0 || classSize(got) != c.size {
			t.Errorf("classFor(%d) = class %d (size %d), want size %d", c.n, got, classSize(got), c.size)
		}
	}
	if classFor(MaxClass+1) != -1 {
		t.Errorf("classFor(MaxClass+1) = %d, want -1", classFor(MaxClass+1))
	}
}

func TestExactClass(t *testing.T) {
	for n := MinClass; n <= MaxClass; n <<= 1 {
		if c := exactClass(n); c < 0 || classSize(c) != n {
			t.Errorf("exactClass(%d) = %d", n, c)
		}
	}
	for _, n := range []int{0, 1, MinClass - 1, MinClass + 1, 1000, MaxClass - 1, MaxClass * 2} {
		if c := exactClass(n); c != -1 {
			t.Errorf("exactClass(%d) = %d, want -1", n, c)
		}
	}
}

func TestGetLengthAndCapacity(t *testing.T) {
	b := Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) len = %d", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("Get(100) cap = %d, want the 128 class", cap(b))
	}
	Put(b)

	bc := GetCap(100)
	if len(bc) != 0 || cap(bc) < 100 {
		t.Fatalf("GetCap(100) len=%d cap=%d", len(bc), cap(bc))
	}
	Put(bc)
}

func TestPutRejectsForeignBuffers(t *testing.T) {
	before := Stats().Discards
	b := Get(256)
	Put(make([]byte, 100)) // non-class capacity
	Put(b[10:])            // re-sliced: offset alias
	Put(make([]byte, 3, 200))
	if got := Stats().Discards - before; got != 3 {
		t.Errorf("discards = %d, want 3", got)
	}
	Put(nil) // must be a silent no-op
	Put(b)
}

// TestDropHandsToTheCollector: Drop ends ownership without pooling — out of
// Outstanding and the ledger, into Discards — and the ledger names the stack
// of every buffer taken and not yet released.
func TestDropHandsToTheCollector(t *testing.T) {
	base := Stats()
	b := Get(512)
	if Debug && !held(t.Name()) {
		t.Error("the ledger does not name the test that holds a buffer")
	}
	Drop(b)
	got := Stats()
	if got.Outstanding != base.Outstanding || got.Discards != base.Discards+1 || got.Puts != base.Puts {
		t.Errorf("after Drop: outstanding %+d, discards %+d, puts %+d; want 0, +1, 0",
			got.Outstanding-base.Outstanding, got.Discards-base.Discards, got.Puts-base.Puts)
	}
	if held(t.Name()) {
		t.Error("the ledger still names a dropped buffer")
	}
}

// held reports whether a buffer taken by the named test's own frame is on
// the ledger.
func held(test string) bool {
	for _, s := range Ledger() {
		frames := runtime.CallersFrames(s.Stack)
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, "."+test) {
				return true
			}
			if !more {
				break
			}
		}
	}
	return false
}

func TestOversizeFallsThrough(t *testing.T) {
	before := Stats().Oversize
	b := Get(MaxClass + 1)
	if len(b) != MaxClass+1 {
		t.Fatalf("oversize Get len = %d", len(b))
	}
	if Stats().Oversize != before+1 {
		t.Error("oversize Get not counted")
	}
	Put(b) // cap is not a class; dropped quietly
}

func TestOutstandingBalances(t *testing.T) {
	before := Stats().Outstanding
	bufs := make([][]byte, 10)
	for i := range bufs {
		bufs[i] = Get(512)
	}
	if got := Stats().Outstanding - before; got != 10 {
		t.Errorf("outstanding after 10 Gets = %+d, want +10", got)
	}
	for _, b := range bufs {
		Put(b)
	}
	if got := Stats().Outstanding - before; got != 0 {
		t.Errorf("outstanding after matching Puts = %+d, want 0", got)
	}
}

// TestReuseHits: a Put buffer comes back on the next same-class Get. Under
// the race detector sync.Pool deliberately randomizes caching, so the hit is
// not guaranteed there.
func TestReuseHits(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race")
	}
	Put(Get(1024)) // prime the class so the pool has at least one entry
	before := Stats().Hits
	for i := 0; i < 8; i++ {
		Put(Get(1024))
	}
	if got := Stats().Hits - before; got == 0 {
		t.Error("8 Get/Put cycles produced no pool hits")
	}
}

// TestSteadyStateZeroAlloc: the Get→Put cycle itself allocates nothing once
// the class and the spare-box pool are primed — the property every hot path
// in the stack leans on.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race")
	}
	Put(Get(4096))
	if avg := testing.AllocsPerRun(200, func() { Put(Get(4096)) }); avg > 0 {
		t.Errorf("steady-state Get/Put allocates %.2f allocs/op, want 0", avg)
	}
}

// TestPoisonDetectsUseAfterPut: with -tags pooldebug, writing through an
// alias retained past Put makes the next Get of that buffer panic at the
// pool boundary. Without the tag the test only checks that Debug is off.
func TestPoisonDetectsUseAfterPut(t *testing.T) {
	if !Debug {
		t.Skip("needs -tags pooldebug")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes under -race")
	}
	b := Get(2048)
	Put(b)
	b[7] = 0x5A // the use-after-Put this build exists to catch

	caught := ""
	func() {
		defer func() {
			if p := recover(); p != nil {
				caught, _ = p.(string)
			}
		}()
		// The corrupted buffer sits at the top of this P's private pool
		// slot; a handful of Gets must surface it. Clean buffers handed
		// back meanwhile are kept out of the pool.
		for i := 0; i < 8; i++ {
			Get(2048)
		}
	}()
	if caught == "" {
		t.Fatal("poisoned buffer recycled without panic — use-after-Put undetected")
	}
	if !strings.Contains(caught, "use after Put") {
		t.Fatalf("unexpected panic message: %s", caught)
	}
}

// TestPoisonAcceptsCleanRecycle: a buffer that is Put and left alone
// recycles without complaint even under pooldebug.
func TestPoisonAcceptsCleanRecycle(t *testing.T) {
	for i := 0; i < 50; i++ {
		b := Get(8192)
		for j := range b {
			b[j] = byte(i)
		}
		Put(b)
	}
}
