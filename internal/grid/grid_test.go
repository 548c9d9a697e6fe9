package grid

import (
	"fmt"
	"testing"
	"testing/quick"

	"pcxxstreams/internal/distr"
)

func TestBlockBlockOwnership(t *testing.T) {
	// 4x6 grid over a 2x3 mesh, (BLOCK, BLOCK): rows split 2+2, cols 2+2+2.
	g, err := New2D(4, 6, 2, 3, distr.Block, distr.Block, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			wantPR, wantPC := i/2, j/2
			if got := g.Owner(i, j); got != wantPR*3+wantPC {
				t.Errorf("Owner(%d,%d) = %d, want %d", i, j, got, wantPR*3+wantPC)
			}
		}
	}
	// Every rank owns exactly 2x2 = 4 cells.
	for r := 0; r < 6; r++ {
		if got := g.Dist().LocalCount(r); got != 4 {
			t.Errorf("rank %d owns %d cells, want 4", r, got)
		}
	}
}

func TestCyclicCyclicOwnership(t *testing.T) {
	g, err := New2D(6, 6, 2, 2, distr.Cyclic, distr.Cyclic, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := (i%2)*2 + j%2
			if got := g.Owner(i, j); got != want {
				t.Errorf("Owner(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestMixedModesWithBlockCyclic(t *testing.T) {
	g, err := New2D(8, 9, 2, 3, distr.BlockCyclic, distr.Cyclic, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 9; j++ {
			wantPR := (i / 2) % 2
			wantPC := j % 3
			if got := g.Owner(i, j); got != wantPR*3+wantPC {
				t.Errorf("Owner(%d,%d) = %d, want %d", i, j, got, wantPR*3+wantPC)
			}
		}
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g, err := New2D(5, 7, 1, 1, distr.Block, distr.Block, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			idx := g.Index(i, j)
			ri, rj := g.Coords(idx)
			if ri != i || rj != j {
				t.Fatalf("Coords(Index(%d,%d)) = (%d,%d)", i, j, ri, rj)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New2D(0, 4, 1, 1, distr.Block, distr.Block, 0, 0); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New2D(4, 4, 1, 1, distr.Explicit, distr.Block, 0, 0); err == nil {
		t.Error("explicit per-dimension mode accepted")
	}
	if _, err := New2D(4, 4, 2, 2, distr.BlockCyclic, distr.Block, 0, 0); err == nil {
		t.Error("BLOCK_CYCLIC rows without block accepted")
	}
}

func TestPanicsOnOutOfRange(t *testing.T) {
	g, _ := New2D(3, 3, 1, 1, distr.Block, distr.Block, 0, 0)
	for _, f := range []func(){
		func() { g.Index(3, 0) },
		func() { g.Index(0, -1) },
		func() { g.Coords(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: the explicit distribution's ownership bijection holds for
// random grid shapes and the counts match the per-dimension product.
func TestGridBijectionQuick(t *testing.T) {
	f := func(r8, c8, pr8, pc8, m1, m2 uint8) bool {
		rows, cols := int(r8)%10+1, int(c8)%10+1
		pr, pc := int(pr8)%3+1, int(pc8)%3+1
		g, err := New2D(rows, cols, pr, pc, distr.Mode(m1%3), distr.Mode(m2%3), 2, 2)
		if err != nil {
			return false
		}
		d := g.Dist()
		for idx := 0; idx < rows*cols; idx++ {
			if d.GlobalIndex(d.Owner(idx), d.LocalIndex(idx)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	g, _ := New2D(4, 5, 2, 2, distr.Block, distr.Block, 0, 0)
	if got := g.String(); got != "GRID(4x5 over 2x2 mesh)" {
		t.Fatalf("String = %q", got)
	}
	_ = fmt.Sprint(g)
}

func TestGrid3DOwnership(t *testing.T) {
	// 4x4x4 grid over 2x2x2 mesh, all BLOCK: each rank owns a 2x2x2 octant.
	g, err := New3D(4, 4, 4, 2, 2, 2, distr.Block, distr.Block, distr.Block, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				want := (i/2)*4 + (j/2)*2 + k/2
				if got := g.Owner(i, j, k); got != want {
					t.Errorf("Owner(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
			}
		}
	}
	for r := 0; r < 8; r++ {
		if got := g.Dist().LocalCount(r); got != 8 {
			t.Errorf("rank %d owns %d cells, want 8", r, got)
		}
	}
}

func TestGrid3DIndexCoords(t *testing.T) {
	g, err := New3D(3, 4, 5, 1, 1, 1, distr.Cyclic, distr.Cyclic, distr.Cyclic, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				ri, rj, rk := g.Coords(g.Index(i, j, k))
				if ri != i || rj != j || rk != k {
					t.Fatalf("Coords(Index(%d,%d,%d)) = (%d,%d,%d)", i, j, k, ri, rj, rk)
				}
			}
		}
	}
}

func TestGrid3DValidation(t *testing.T) {
	if _, err := New3D(0, 1, 1, 1, 1, 1, distr.Block, distr.Block, distr.Block, 0, 0, 0); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := New3D(2, 2, 2, 1, 1, 1, distr.Explicit, distr.Block, distr.Block, 0, 0, 0); err == nil {
		t.Error("explicit dim mode accepted")
	}
	if _, err := New3D(2, 2, 2, 1, 1, 1, distr.BlockCyclic, distr.Block, distr.Block, 0, 0, 0); err == nil {
		t.Error("block-cyclic without block accepted")
	}
}

func TestGrid3DBijectionQuick(t *testing.T) {
	f := func(n1, n2, n3, p1, p2, p3 uint8) bool {
		nx, ny, nz := int(n1)%4+1, int(n2)%4+1, int(n3)%4+1
		px, py, pz := int(p1)%2+1, int(p2)%2+1, int(p3)%2+1
		g, err := New3D(nx, ny, nz, px, py, pz, distr.Cyclic, distr.Block, distr.BlockCyclic, 0, 0, 2)
		if err != nil {
			return false
		}
		d := g.Dist()
		for idx := 0; idx < nx*ny*nz; idx++ {
			if d.GlobalIndex(d.Owner(idx), d.LocalIndex(idx)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
