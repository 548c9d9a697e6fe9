package collective

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
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

// The gather on every tree of shardCases, from root 0 and from a root in the
// middle: the root gets each rank's contribution in rank order — leaves' as
// sent, inner subtrees' unpacked — and nobody else gets anything.
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
					defer putGathered(parts, root)
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
				all, frame, err := c.Allgather([]byte{byte(me), byte(me + 1)})
				if err != nil {
					return err
				}
				defer bufpool.Put(frame)
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
				defer putAll(out)
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

// TestShardedFrameRejection: an inner node's packed subtree frame that ends
// inside an entry, overruns its length, names a rank outside the group, or
// lacks an entry of its subtree is an error at the gather root — not a short
// or shifted result — and the root gives back what it had taken. On 4 ranks
// with fan-out 2, rank 1 is the inner node (rank 3 is its child) and plays the
// faulty peer by hand.
func TestShardedFrameRejection(t *testing.T) {
	entry := appendEntry(nil, 1, []byte("abc"))
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string // what the gather root reports
	}{
		{"truncated", entry[:6], "frame truncated"},
		{"length overruns", entry[:len(entry)-1], "frame corrupt"},
		{"rank out of group", appendEntry(nil, 4, nil), "frame corrupt"},
		{"entry missing", entry, "missing 1 of 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spmdShape(t, 4, 2, func(c *Comm) error {
				switch c.Rank() {
				case 0:
					if _, err := c.Gather(0, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
						return fmt.Errorf("got %v, want an error saying %q", err, tc.want)
					}
					return nil
				case 1:
					gather := tag(kindGather, c.next(), 0)
					d, err := c.ep.Recv(3, gather)
					if err != nil {
						return err
					}
					bufpool.Put(d)
					return c.ep.SendOnce(0, gather, tc.frame)
				}
				_, err := c.Gather(0, []byte("ok"))
				return err
			})
		})
	}
}

// TestTreeBarrierFlows: a traced barrier on the 8-ary tree links every
// rank's barrier span to its tree parent's — one arrival edge up and one
// release edge down per tree edge, as the flat exchange links every rank to
// the root.
func TestTreeBarrierFlows(t *testing.T) {
	const n = 20
	mon := dsmon.NewTracing()
	spmd(t, n, func(c *Comm) error {
		c.mon = mon
		return c.Barrier()
	})
	rec := mon.Recorder()
	node := map[dsmon.SpanID]int{}
	for _, e := range rec.Events() {
		if e.Name == "barrier" {
			node[e.ID] = e.Node
		}
	}
	edges := map[string]map[int]bool{"barrier-arrive": {}, "barrier-release": {}}
	for _, f := range rec.Flows() {
		seen, ok := edges[f.Kind]
		if !ok {
			continue
		}
		child, parent := node[f.From], node[f.To]
		if f.Kind == "barrier-release" {
			child, parent = parent, child
		}
		if child == 0 || kparent(child, treeFanout) != parent || seen[child] {
			t.Errorf("%s edge from rank %d to rank %d is not one rank's only edge to its tree parent", f.Kind, node[f.From], node[f.To])
		}
		seen[child] = true
	}
	for kind, seen := range edges {
		if len(seen) != n-1 {
			t.Errorf("%d %s edges, want %d", len(seen), kind, n-1)
		}
	}
}

// waitTap is a transport that closes all once every (receiver, sender) pair
// in want has begun a receive.
type waitTap struct {
	comm.Transport
	mu   sync.Mutex
	want map[[2]int]bool
	all  chan struct{}
}

func (w *waitTap) Recv(to, from int, tag uint64) (comm.Message, error) {
	w.mu.Lock()
	if w.want[[2]int{to, from}] {
		delete(w.want, [2]int{to, from})
		if len(w.want) == 0 {
			close(w.all)
		}
	}
	w.mu.Unlock()
	return w.Transport.Recv(to, from, tag)
}

// refuseFrom is a transport on which rank from cannot send.
type refuseFrom struct {
	comm.Transport
	from int
}

func (r refuseFrom) Send(m comm.Message) error {
	if m.From == r.from {
		return fmt.Errorf("refused")
	}
	return r.Transport.Send(m)
}

// TestFailedCollectiveGivesBack: a collective that fails part-way gives back
// every pooled buffer it had taken. A gather whose last sender never arrives
// fails at the root once the transport closes under it — on 4 ranks after the
// root took two contributions, on 20 after it unpacked child 1's subtree —
// and a broadcast whose inner node cannot forward fails there; either way the
// test binary's leak check finds every buffer back.
func TestFailedCollectiveGivesBack(t *testing.T) {
	for _, n := range []int{4, 17, 20} {
		t.Run(fmt.Sprintf("gather/n=%d", n), func(t *testing.T) {
			last := n - 1
			k := n - 1 // the shape New gives n ranks
			if n > flatMax {
				k = treeFanout
			}
			top := last // root's child whose subtree holds the last rank
			for kparent(top, k) != 0 {
				top = kparent(top, k)
			}
			tap := &waitTap{Transport: comm.NewChanTransport(n), all: make(chan struct{}),
				want: map[[2]int]bool{{kparent(last, k), last}: true, {0, top}: true}}
			errs := make([]error, n)
			spmdOver(t, n, tap, func(c *Comm) error {
				if c.Rank() == last {
					<-tap.all
					return tap.Close()
				}
				_, errs[c.Rank()] = c.Gather(0, bytes.Repeat([]byte{byte(c.Rank())}, 100))
				return nil
			})
			if errs[0] == nil {
				t.Fatal("the gather root succeeded without the last rank")
			}
		})
	}
	t.Run("bcast/n=20", func(t *testing.T) {
		const n = 20
		errs := make([]error, n)
		spmdOver(t, n, refuseFrom{comm.NewChanTransport(n), 1}, func(c *Comm) error {
			if kparent(c.Rank(), treeFanout) == 1 {
				return nil // rank 1's children: it never forwards to them
			}
			var data []byte
			if c.Rank() == 0 {
				data = bytes.Repeat([]byte{9}, 100)
			}
			var frame []byte
			_, frame, errs[c.Rank()] = c.bcastFrame(0, data)
			bufpool.Put(frame)
			return nil
		})
		if errs[1] == nil {
			t.Fatal("rank 1 forwarded over a transport that refuses its sends")
		}
	})
}
