package enc

import (
	"bytes"
	"testing"

	"pcxxstreams/internal/bufpool"
)

// TestArenaElementsBackToBack: between Adopt and Detach the Buffer encodes
// a run of elements into one pooled store; Len, Bytes and Reset see only the
// current element, Mark reports where each ends, and growth — here from the
// smallest class through several, one append at a time and one large Raw at
// once — carries the earlier elements along and stays inside the pool.
func TestArenaElementsBackToBack(t *testing.T) {
	base := bufpool.Stats()
	var e Buffer
	e.Adopt(bufpool.GetCap(0))
	var want []byte
	var ends []int
	for i := 0; i < 200; i++ {
		if e.Len() != 0 {
			t.Fatalf("element %d starts with Len %d", i, e.Len())
		}
		e.Uint32(0xdead) // a false start the element takes back
		e.Reset()
		var el Buffer
		for _, b := range []*Buffer{&e, &el} {
			b.Uint32(uint32(i))
			b.Int64Slice(make([]int64, i%7))
			b.String("element")
			b.Bool(i%2 == 0)
			if i == 100 {
				b.Raw(bytes.Repeat([]byte{0xAB}, 10000))
			}
		}
		if !bytes.Equal(e.Bytes(), el.Bytes()) || e.Len() != el.Len() {
			t.Fatalf("element %d: arena shows %d bytes, a plain Buffer encoded %d", i, e.Len(), el.Len())
		}
		want = append(want, el.Bytes()...)
		ends = append(ends, e.Mark())
	}
	if got := bufpool.Stats(); got.Outstanding != base.Outstanding+1 || got.Oversize != base.Oversize {
		t.Fatalf("mid-run the Buffer holds %d pooled buffers and made %d oversize requests, want 1 and 0",
			got.Outstanding-base.Outstanding, got.Oversize-base.Oversize)
	}
	p := e.Detach()
	if !bytes.Equal(p, want) || ends[len(ends)-1] != len(want) {
		t.Fatalf("arena holds %d bytes ending at %d, want %d", len(p), ends[len(ends)-1], len(want))
	}
	if e.Len() != 0 || cap(e.Bytes()) != 0 {
		t.Fatal("Detach left the Buffer holding something")
	}
	bufpool.Put(p)
	if got := bufpool.Stats().Outstanding; got != base.Outstanding {
		t.Fatalf("%d pooled buffers unaccounted for", got-base.Outstanding)
	}
	// A Buffer that adopted nothing is untouched by Reserve and grows as ever.
	e.Reserve(1 << 20)
	e.Uint64(7)
	if e.Len() != 8 || cap(e.Bytes()) >= 1<<20 {
		t.Fatalf("plain Buffer after Reserve: len %d cap %d", e.Len(), cap(e.Bytes()))
	}
}

// TestArenaReserveAndOutgrowPool: Reserve moves an arena once to a class
// with the room asked for, keeping what is in it; past the pool's largest
// class growth falls through to the allocator and still loses nothing.
func TestArenaReserveAndOutgrowPool(t *testing.T) {
	var e Buffer
	e.Adopt(bufpool.GetCap(10))
	e.String("first")
	e.Mark()
	e.Reserve(100000)
	if free := cap(e.b) - len(e.b); free < 100000 {
		t.Fatalf("Reserve(100000) left room for %d", free)
	}
	before := cap(e.b)
	e.Raw(make([]byte, 100000))
	if cap(e.b) != before {
		t.Fatal("an append within the reserved room moved the arena")
	}
	chunk := bytes.Repeat([]byte{7}, 1<<20)
	for i := 0; i < 5; i++ { // 5 MiB: past bufpool.MaxClass
		e.Raw(chunk)
	}
	p := e.Detach()
	if len(p) != 9+100000+5<<20 || string(p[4:9]) != "first" || p[len(p)-1] != 7 {
		t.Fatalf("arena of %d bytes lost its contents", len(p))
	}
	bufpool.Put(p)
}
