package collective

import (
	"bytes"
	"fmt"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/vtime"
)

// spmdShape runs body over the channel transport on communicators forced to
// one shape — fanout 0 is the flat exchange, k >= 2 the k-ary tree —
// whatever New chose for the size: the way to compare the two shapes at one
// size, and to drive the tree code at sizes New keeps flat.
func spmdShape(t testing.TB, n, fanout int, body func(c *Comm) error) []float64 {
	t.Helper()
	return spmd(t, n, func(c *Comm) error {
		c.fanout = fanout
		return body(c)
	})
}

func TestTreeBcastAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16} {
		for _, root := range []int{0, n - 1, n / 2} {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				spmdShape(t, n, treeFanout, func(c *Comm) error {
					var data []byte
					if c.Rank() == root {
						data = []byte(fmt.Sprintf("payload-%d-%d", n, root))
					}
					got, err := c.Bcast(root, data)
					if err != nil {
						return err
					}
					want := fmt.Sprintf("payload-%d-%d", n, root)
					if string(got) != want {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestTreeReduceAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 9, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			spmdShape(t, n, treeFanout, func(c *Comm) error {
				// Integer-valued floats: exact under any association order.
				sum, err := c.Reduce(0, float64(c.Rank()+1), OpSum)
				if err != nil {
					return err
				}
				want := float64(n*(n+1)) / 2
				if c.Rank() == 0 && sum != want {
					return fmt.Errorf("sum = %v, want %v", sum, want)
				}
				max, err := c.Reduce(0, float64(c.Rank()), OpMax)
				if err != nil {
					return err
				}
				if c.Rank() == 0 && max != float64(n-1) {
					return fmt.Errorf("max = %v", max)
				}
				return nil
			})
		})
	}
}

// The sizes below are past flatMax: the tree is the shape New gives them.

func TestTreeBarrierOrdering(t *testing.T) {
	// The tree must not release anyone before the slowest participant
	// arrived.
	const n = 24
	times := spmd(t, n, func(c *Comm) error {
		c.Endpoint().Clock().Advance(float64(c.Rank()))
		return c.Barrier()
	})
	for r, tm := range times {
		if tm < n-1 {
			t.Fatalf("rank %d left the barrier at %v, before the slowest arrival (%d)", r, tm, n-1)
		}
	}
}

func TestTreeAllreduce(t *testing.T) {
	spmd(t, 24, func(c *Comm) error {
		got, err := c.Allreduce(1, OpSum)
		if err != nil {
			return err
		}
		if got != 24 {
			return fmt.Errorf("allreduce = %v", got)
		}
		return nil
	})
}

func TestTreeCollectivesSequence(t *testing.T) {
	const n = 19
	spmd(t, n, func(c *Comm) error {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			root := i * 4 % n
			msg := []byte{byte(i)}
			var in []byte
			if c.Rank() == root {
				in = msg
			}
			got, err := c.Bcast(root, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, msg) {
				return fmt.Errorf("round %d got %v", i, got)
			}
		}
		return nil
	})
}

// TestTreeScalesLogarithmically: at 256 nodes the tree broadcast completes
// in far less virtual time than the flat one.
func TestTreeScalesLogarithmically(t *testing.T) {
	elapsed := func(n, fanout int) float64 {
		times := spmdShape(t, n, fanout, func(c *Comm) error {
			var data []byte
			if c.Rank() == 0 {
				data = make([]byte, 1024)
			}
			_, err := c.Bcast(0, data)
			return err
		})
		return vtime.MaxOf(times)
	}
	flat, tree := elapsed(256, 0), elapsed(256, treeFanout)
	if tree >= flat/3 {
		t.Fatalf("tree bcast (%v) not ≥3x faster than flat (%v) at 256 nodes", tree, flat)
	}
	// At the paper's scale the two are comparable; flat is not broken.
	flat8, tree8 := elapsed(8, 0), elapsed(8, treeFanout)
	if flat8 > 3*tree8 {
		t.Fatalf("flat (%v) unexpectedly poor at 8 nodes vs tree (%v)", flat8, tree8)
	}
}

// TestAlgorithmsAgreeOnResults: for exact-representable inputs, the flat
// exchange and the tree compute identical collective results on either side
// of flatMax.
func TestAlgorithmsAgreeOnResults(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 11, 17, 64} {
		n := n
		results := map[int][]float64{}
		for _, fanout := range []int{0, treeFanout} {
			sums := make([]float64, n)
			spmdShape(t, n, fanout, func(c *Comm) error {
				s, err := c.Allreduce(float64(c.Rank()*3+1), OpSum)
				if err != nil {
					return err
				}
				sums[c.Rank()] = s
				return nil
			})
			results[fanout] = sums
		}
		for r := 0; r < n; r++ {
			if results[0][r] != results[treeFanout][r] {
				t.Fatalf("n=%d rank %d: flat %v != tree %v",
					n, r, results[0][r], results[treeFanout][r])
			}
		}
	}
}

// TestRecursiveDoublingAllgather is the allgather contents check at the
// sizes the recursive-doubling exchange split into power-of-two and fallback
// cases; they are one path now, run here on the tree.
func TestRecursiveDoublingAllgather(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 3, 6} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			spmdShape(t, n, 2, func(c *Comm) error {
				mine := bytes.Repeat([]byte{byte('A' + c.Rank())}, c.Rank()+1)
				parts, _, err := c.Allgather(mine)
				if err != nil {
					return err
				}
				if len(parts) != n {
					return fmt.Errorf("got %d parts", len(parts))
				}
				for r, p := range parts {
					want := bytes.Repeat([]byte{byte('A' + r)}, r+1)
					if !bytes.Equal(p, want) {
						return fmt.Errorf("rank %d part %d = %q, want %q", c.Rank(), r, p, want)
					}
				}
				return nil
			})
		})
	}
}

// TestAllgatherBufferIsolation: the returned own-part must not alias the
// caller's buffer, on either shape.
func TestAllgatherBufferIsolation(t *testing.T) {
	for _, n := range []int{4, 20} {
		spmd(t, n, func(c *Comm) error {
			mine := []byte{byte(c.Rank()), 99}
			parts, _, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			mine[1] = 0
			if parts[c.Rank()][1] != 99 {
				return fmt.Errorf("n=%d: allgather aliased input buffer", n)
			}
			return nil
		})
	}
}

// TestTreeAllgatherFasterAtScale: at 128 nodes gather+bcast over the tree
// beats the same pair through one root in virtual time.
func TestTreeAllgatherFasterAtScale(t *testing.T) {
	elapsed := func(fanout int) float64 {
		times := spmdShape(t, 128, fanout, func(c *Comm) error {
			_, _, err := c.Allgather(make([]byte, 32))
			return err
		})
		return vtime.MaxOf(times)
	}
	flat, tree := elapsed(0), elapsed(treeFanout)
	if tree >= flat/2 {
		t.Fatalf("tree allgather (%v) not ≥2x faster than flat (%v) at 128 nodes", tree, flat)
	}
}

// BenchmarkShapes is the wall-clock side of DESIGN.md "Collective shape":
// real time per message of the flat exchange against the tree at one size,
// on the runtime scale curve's workload (64 neighbour messages, an Allreduce
// and a Barrier a round) and on its two collectives alone. One iteration is
// one round on every rank; run with a fixed -benchtime=Nx, best of several
// -count.
func BenchmarkShapes(b *testing.B) {
	const scaleTag = 0x5CA1E // high byte zero: never a collective's tag
	for _, n := range []int{8, 16, 32, 128, 512, 1024} {
		for _, p2p := range []int{64, 0} {
			for _, fanout := range []int{0, treeFanout} {
				b.Run(fmt.Sprintf("P=%d/p2p=%d/fanout=%d", n, p2p, fanout), func(b *testing.B) {
					payload := make([]byte, 256)
					spmdShape(b, n, fanout, func(c *Comm) error {
						right, left := (c.Rank()+1)%n, (c.Rank()+n-1)%n
						for round := 0; round < b.N; round++ {
							for i := 0; i < p2p; i++ {
								if err := c.ep.Send(right, scaleTag, payload); err != nil {
									return err
								}
								d, err := c.ep.Recv(left, scaleTag)
								if err != nil {
									return err
								}
								bufpool.Put(d)
							}
							if _, err := c.Allreduce(float64(c.Rank()), OpMax); err != nil {
								return err
							}
							if err := c.Barrier(); err != nil {
								return err
							}
						}
						return nil
					})
					// Either shape moves 4(n-1) messages for the two collectives.
					msgs := float64(b.N) * float64(p2p*n+4*(n-1))
					b.ReportMetric(b.Elapsed().Seconds()*1e6/msgs, "µs/msg")
				})
			}
		}
	}
}
