package plan

import (
	"math"
	"testing"

	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// FuzzCostModel throws arbitrary (profile, layout, geometry, fan-in) tuples
// at the cost model — negative byte counts, zero machines, NaN bandwidths,
// absurd stripe geometries. The contract under fuzz: never panic, never
// divide by zero, and every estimate stays a finite non-negative float.
func FuzzCostModel(f *testing.F) {
	f.Add(4, 64, int64(1<<20), int64(300), int64(64<<10), 4, 4, uint8(0),
		415e6, 6e6, 80e6, 150e-6, 1.2e-3, int64(512<<10), 2)
	f.Add(0, 0, int64(0), int64(0), int64(0), 0, 0, uint8(1),
		0.0, 0.0, 0.0, 0.0, 0.0, int64(0), 0)
	f.Add(-5, -1, int64(-1<<40), int64(-7), int64(-3), -2, -9, uint8(2),
		-1.0, math.Inf(1), math.NaN(), -0.5, math.Inf(-1), int64(-1), -3)
	f.Add(1<<20, 1<<30, int64(math.MaxInt64), int64(math.MaxInt64), int64(1), 1<<20, 1<<20, uint8(7),
		1e300, 1e-300, 5e5, 90e-6, 20e-6, int64(math.MaxInt64), 1<<20)

	f.Fuzz(func(t *testing.T, nprocs, nelems int, dataBytes, metaBytes, stripeUnit int64,
		stripeFactor, k int, sByte uint8,
		fastBW, slowBW, msgBW, ioLat, serial float64, blockCache int64, channels int) {
		prof := vtime.Paragon()
		prof.DiskFastBW = fastBW
		prof.DiskSlowBW = slowBW
		prof.MsgBW = msgBW
		prof.IOOpLatency = ioLat
		prof.SerialPerOp = serial
		prof.BlockCache = blockCache
		prof.IOChannels = channels
		m := Model{Prof: prof, Layout: pfs.Layout{StripeUnit: stripeUnit, StripeFactor: stripeFactor}}
		g := Geometry{NProcs: nprocs, NElems: nelems, DataBytes: dataBytes, MetaBytes: metaBytes}
		s := Strategy(sByte % uint8(numStrategies))

		for name, c := range map[string]float64{
			"write": m.WriteCost(g, s, k),
			"read":  m.ReadCost(g, s, k),
		} {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("%s cost(%+v, %v, k=%d) = %g under fuzzed profile %+v", name, g, s, k, c, prof)
			}
		}
		limit := nprocs
		if limit < 1 {
			limit = 1
		}
		for name, best := range map[string]int{
			"write": m.BestWriteAggregators(g),
			"read":  m.BestReadAggregators(g),
		} {
			if best < 1 || best > limit {
				t.Fatalf("%s Best…Aggregators(%+v) = %d outside [1, %d]", name, g, best, limit)
			}
		}
	})
}

// FuzzPlannerChain drives a whole controller from an arbitrary byte script
// (each chunk becomes one plan-or-observe step), twice, asserting the two
// runs never panic and produce bit-identical decision chains — the
// rank-identity property the chaos oracle checks end to end, pinned here at
// the unit level over a much wilder input space.
func FuzzPlannerChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x80, 0xff, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45})
	f.Add([]byte("plan write plan read observe waste consume plan plan plan"))

	f.Fuzz(func(t *testing.T, script []byte) {
		drive := func() (uint64, int64, int64) {
			p := New(Model{Prof: vtime.CM5(), Layout: pfs.Layout{StripeUnit: 16 << 10, StripeFactor: 4}})
			for i := 0; i+6 <= len(script); i += 6 {
				b := script[i : i+6]
				g := Geometry{
					NProcs:    int(b[1]%32) - 2, // occasionally degenerate
					NElems:    int(b[2]) * 7,
					DataBytes: int64(b[3]) << (b[4] % 24),
					MetaBytes: int64(b[5]),
				}
				switch b[0] % 5 {
				case 0:
					d := p.PlanWrite(g, int(b[2])-8)
					if d.Aggregators < 1 {
						t.Fatalf("write plan with %d aggregators", d.Aggregators)
					}
				case 1:
					d := p.PlanRead(g, int(b[2])-8, int(b[3])-8)
					if d.ReadAhead < 0 || d.Aggregators < 1 {
						t.Fatalf("read plan depth %d aggregators %d", d.ReadAhead, d.Aggregators)
					}
				case 2:
					p.Observe(Strategy(b[1]%4), float64(b[2])-10, float64(int(b[3])-10)*float64(b[4]))
				case 3:
					p.ObserveConsumed(int64(b[2]) - 64)
				case 4:
					p.ObserveWasted(int64(b[3]) - 64)
				}
			}
			return p.Signature(), p.Records(), p.Switches()
		}
		sigA, recA, swA := drive()
		sigB, recB, swB := drive()
		if sigA != sigB || recA != recB || swA != swB {
			t.Fatalf("same script, diverging chains: (%016x,%d,%d) vs (%016x,%d,%d)",
				sigA, recA, swA, sigB, recB, swB)
		}
	})
}
