package dsinfo

import (
	"runtime"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
)

// fuzzSeeds are valid files, one per distribution mode, written by the
// strategy given.
func fuzzSeeds(t testing.TB, strat dstream.Strategy) map[string][]byte {
	const nprocs, n = 3, 7
	out := map[string][]byte{"explicit": explicitSample(t, nprocs, n)}
	for _, m := range []struct {
		mode  distr.Mode
		block int
	}{{distr.Block, 0}, {distr.Cyclic, 0}, {distr.BlockCyclic, 2}} {
		out[m.mode.String()] = writeSampleDist(t, nprocs, func() (*distr.Distribution, error) {
			return distr.New(n, nprocs, m.mode, m.block)
		}, dstream.WithStrategy(strat))
	}
	return out
}

// FuzzFileReaders: the two readers of a d/stream file agree on every image.
// dsinfo.Parse accepts exactly when an input stream opens the file and reads
// every record without error (streamWalk) — the record front matter has one
// reader (enc.ReadRecordHeader, Distribution, TableOffsets) and this is the
// differential that fold guarantees — and neither panics, or allocates out
// of proportion to the image: a length field is checked against the file
// before anything is sized by it.
func FuzzFileReaders(f *testing.F) {
	for _, strat := range []dstream.Strategy{dstream.StrategyFunnel, dstream.StrategyParallel, dstream.StrategyTwoPhase} {
		for _, img := range fuzzSeeds(f, strat) {
			f.Add(img)
		}
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, perr := Parse(img)
		serr := streamWalk(img)
		runtime.ReadMemStats(&after)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("the readers disagree on a %d-byte image:\n  Parse:  %v\n  stream: %v", len(img), perr, serr)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(img)); got > limit {
			t.Fatalf("reading a %d-byte image allocated %d bytes (limit %d): %v", len(img), got, limit, perr)
		}
	})
}
