package collective

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// shardCases sweeps the fan-outs and group sizes the sharded paths must
// survive: non-trivial trees (depth >= 2), leaf-heavy last levels, and
// group sizes that are neither powers of the fan-out nor of two.
var shardCases = []struct{ n, k int }{
	{3, 2}, {4, 2}, {5, 2}, {8, 2}, {9, 2},
	{7, 3}, {9, 3}, {13, 3},
	{16, 4}, {17, 4},
}

func TestShardedBarrier(t *testing.T) {
	for _, tc := range shardCases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_k%d", tc.n, tc.k), func(t *testing.T) {
			// Two back-to-back barriers with skewed entry: any arrive/release
			// mismatch across the tree deadlocks or cross-talks (and the
			// per-op sequence numbers would catch a leaked message). The
			// release instant the root predicts is the last arrival at any
			// depth and fan-out, so everyone leaves at it.
			times := spmdShape(t, tc.n, tc.k, func(c *Comm) error {
				c.Endpoint().Clock().Advance(float64(c.Rank()) * 0.25)
				if err := c.Barrier(); err != nil {
					return err
				}
				return c.Barrier()
			})
			for r, tm := range times {
				if tm != times[0] {
					t.Fatalf("rank %d left at %v, rank 0 at %v", r, tm, times[0])
				}
			}
		})
	}
}

func TestShardedBcast(t *testing.T) {
	for _, tc := range shardCases {
		for _, root := range []int{0, tc.n - 1} {
			tc, root := tc, root
			t.Run(fmt.Sprintf("n%d_k%d_root%d", tc.n, tc.k, root), func(t *testing.T) {
				spmdShape(t, tc.n, tc.k, func(c *Comm) error {
					var data []byte
					if c.Rank() == root {
						data = []byte("sharded payload")
					}
					got, err := c.Bcast(root, data)
					if err != nil {
						return err
					}
					if string(got) != "sharded payload" {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestShardedGatherScatterv(t *testing.T) {
	for _, tc := range shardCases {
		for _, root := range []int{0, tc.n / 2} {
			tc, root := tc, root
			t.Run(fmt.Sprintf("n%d_k%d_root%d", tc.n, tc.k, root), func(t *testing.T) {
				spmdShape(t, tc.n, tc.k, func(c *Comm) error {
					me := c.Rank()
					// Gather: rank r contributes r+1 copies of byte r.
					mine := bytes.Repeat([]byte{byte(me)}, me+1)
					parts, err := c.Gather(root, mine)
					if err != nil {
						return err
					}
					if me != root {
						if parts != nil {
							return fmt.Errorf("rank %d: non-root gather returned parts", me)
						}
					} else {
						for r, p := range parts {
							want := bytes.Repeat([]byte{byte(r)}, r+1)
							if !bytes.Equal(p, want) {
								return fmt.Errorf("gather root: rank %d part %v, want %v", r, p, want)
							}
						}
					}
					// Scatterv the same shape back out.
					var out [][]byte
					if me == root {
						out = parts
					}
					got, err := c.Scatterv(root, out)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, mine) {
						return fmt.Errorf("rank %d scatterv got %v, want %v", me, got, mine)
					}
					return nil
				})
			})
		}
	}
}

func TestShardedReduceAllreduce(t *testing.T) {
	for _, tc := range shardCases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_k%d", tc.n, tc.k), func(t *testing.T) {
			wantSum := float64(tc.n*(tc.n+1)) / 2
			spmdShape(t, tc.n, tc.k, func(c *Comm) error {
				v := float64(c.Rank() + 1)
				sum, err := c.Reduce(0, v, OpSum)
				if err != nil {
					return err
				}
				if c.Rank() == 0 && sum != wantSum {
					return fmt.Errorf("reduce sum %v, want %v", sum, wantSum)
				}
				max, err := c.Allreduce(v, OpMax)
				if err != nil {
					return err
				}
				if max != float64(tc.n) {
					return fmt.Errorf("rank %d allreduce max %v, want %v", c.Rank(), max, tc.n)
				}
				return nil
			})
		})
	}
}

func TestShardedAllgatherAlltoallv(t *testing.T) {
	for _, tc := range shardCases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_k%d", tc.n, tc.k), func(t *testing.T) {
			spmdShape(t, tc.n, tc.k, func(c *Comm) error {
				me, n := c.Rank(), c.Size()
				all, _, err := c.Allgather([]byte{byte(me), byte(me + 1)})
				if err != nil {
					return err
				}
				for r, p := range all {
					if !bytes.Equal(p, []byte{byte(r), byte(r + 1)}) {
						return fmt.Errorf("allgather rank %d entry %v", r, p)
					}
				}
				bufs := make([][]byte, n)
				for r := range bufs {
					bufs[r] = []byte{byte(me), byte(r)}
				}
				out, err := c.Alltoallv(bufs)
				if err != nil {
					return err
				}
				for r, p := range out {
					if !bytes.Equal(p, []byte{byte(r), byte(me)}) {
						return fmt.Errorf("alltoallv from %d: %v", r, p)
					}
				}
				return nil
			})
		})
	}
}

// TestShardedFrameRejection: a packed subtree frame that ends inside an
// entry, overruns its length, names a rank outside the group, or lacks an
// entry the receiver must find is an error at the rank that unpacks it — the
// root of a gather, a child of a scatterv — not a short or shifted result.
// Rank 1 of a 3-rank binary tree plays the faulty peer by hand.
func TestShardedFrameRejection(t *testing.T) {
	entry := appendEntry(nil, 1, []byte("abc"))
	for _, tc := range []struct {
		name    string
		frame   []byte
		gather  string // what the gather root reports
		scatter string // what the scatterv child reports
	}{
		{"truncated", entry[:6], "frame truncated", "frame truncated"},
		{"length overruns", entry[:len(entry)-1], "frame corrupt", "frame corrupt"},
		{"rank out of group", appendEntry(nil, 3, nil), "frame corrupt", "frame corrupt"},
		{"entry missing", nil, "missing rank 1", "missing own part"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spmdShape(t, 3, 2, func(c *Comm) error {
				want := func(err error, msg string) error {
					if err == nil || !strings.Contains(err.Error(), msg) {
						return fmt.Errorf("rank %d: got %v, want an error saying %q", c.Rank(), err, msg)
					}
					return nil
				}
				// Gather at root 0: ranks 1 and 2 are its children.
				var err error
				switch c.Rank() {
				case 0:
					_, err = c.Gather(0, nil)
					err = want(err, tc.gather)
				case 1:
					err = c.ep.SendOnce(0, tag(kindGather, c.next(), 0), tc.frame)
				case 2:
					_, err = c.Gather(0, []byte("ok"))
				}
				if err != nil {
					return err
				}
				// Scatterv from root 1: its children are ranks 2 and 0.
				switch c.Rank() {
				case 1:
					seq := c.next()
					for _, to := range []int{2, 0} {
						if err := c.ep.SendOnce(to, tag(kindGather, seq, 1), tc.frame); err != nil {
							return err
						}
					}
					return nil
				default:
					_, err = c.Scatterv(1, nil)
					return want(err, tc.scatter)
				}
			})
		})
	}
}
