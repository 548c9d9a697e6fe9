package pfs

import (
	"testing"

	"pcxxstreams/internal/vtime"
)

// TestLayoutStriped: a file on a striped store reports its real geometry
// through the resilient wrapper.
func TestLayoutStriped(t *testing.T) {
	fs := NewFileSystem(vtime.Paragon(), StripedMemFactory(4, 1<<20))
	var clk vtime.Clock
	f, err := fs.Open("s", 1, 0, &clk, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := f.Layout()
	if got.StripeFactor != 4 || got.StripeUnit != 1<<20 {
		t.Fatalf("Layout() = %+v, want factor 4 unit 1MB", got)
	}
}

// TestLayoutDefault: a flat backend falls back to the profile's channel
// count and the default stripe unit.
func TestLayoutDefault(t *testing.T) {
	for _, prof := range []vtime.Profile{vtime.Paragon(), vtime.Challenge(), vtime.CM5()} {
		fs := NewMemFS(prof)
		var clk vtime.Clock
		f, err := fs.Open("d", 1, 0, &clk, true)
		if err != nil {
			t.Fatal(err)
		}
		got := f.Layout()
		want := prof.IOChannels
		if want <= 0 {
			want = 1
		}
		if got.StripeFactor != want || got.StripeUnit != DefaultStripeUnit {
			t.Errorf("%s: Layout() = %+v, want factor %d unit %d", prof.Name, got, want, DefaultStripeUnit)
		}
		f.Close()
	}
}

// TestLayoutSurvivesInjectedFault: wrapping a file in a fault injector must
// not panic the geometry query; it may degrade to the default.
func TestLayoutSurvivesInjectedFault(t *testing.T) {
	fs := NewFileSystem(vtime.Paragon(), StripedMemFactory(2, 64<<10))
	if err := fs.InjectFault("s", 1000); err != nil {
		t.Fatal(err)
	}
	var clk vtime.Clock
	f, err := fs.Open("s", 1, 0, &clk, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := f.Layout()
	if got.StripeFactor < 1 || got.StripeUnit < 1 {
		t.Fatalf("Layout() degraded to nonsense: %+v", got)
	}
}
