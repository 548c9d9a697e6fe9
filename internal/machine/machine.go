// Package machine assembles the simulated multicomputer: N nodes, each a
// goroutine with its own virtual clock, a message-passing endpoint, the
// collective communicator, and a handle on the shared parallel file system.
// It plays the role of the Paragon/CM-5/Challenge hardware plus the pC++
// runtime's Processors object: machine.Run(cfg, body) is the moral
// equivalent of the paper's Processor_Main.
package machine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"pcxxstreams/internal/collective"
	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TransportKind selects how nodes exchange messages.
type TransportKind uint8

const (
	// TransportChan uses in-process queues (the default; fastest).
	TransportChan TransportKind = iota
	// TransportTCP uses real loopback TCP sockets.
	TransportTCP
)

// Config describes one machine run.
type Config struct {
	NProcs    int
	Profile   vtime.Profile
	Transport TransportKind
	// FS is the parallel file system the nodes mount. If nil, a fresh
	// in-memory file system with the run's profile is created.
	FS *pfs.FileSystem
	// Monitor, when non-nil, is the run's one observability handle: comm
	// message counters and size/wait histograms, collective latency
	// histograms, pfs per-operation accounts, and dstream buffer/stall
	// metrics — plus, on a tracing monitor (dsmon.NewTracing), one timeline
	// of io, comm, collective and dstream spans.
	Monitor *dsmon.Monitor
	// WrapTransport, when non-nil, wraps the run's transport before any
	// endpoint binds to it — the hook the chaos layer uses to inject
	// per-message faults between the endpoints and the real transport.
	WrapTransport func(comm.Transport) comm.Transport
	// RecvDeadline, when positive, bounds every blocking endpoint receive
	// in real time: a receive that sees nothing for this long fails with a
	// transient timeout (and after the endpoint's retry budget, a clean
	// error). The last-resort conversion of a distributed hang into an
	// error; leave zero for normal runs.
	RecvDeadline time.Duration
	// Retry, when non-nil, replaces every endpoint's transient-fault retry
	// policy for the run.
	Retry *comm.RetryPolicy
}

// Node is one rank's execution context, passed to the SPMD body.
type Node struct {
	rank  int
	size  int
	clock vtime.Clock
	ep    *comm.Endpoint
	coll  *collective.Comm
	fs    *pfs.FileSystem
	prof  vtime.Profile
	mon   *dsmon.Monitor
	gens  map[string]uint64
}

// Generation counts this node's uses of key: 0 on the first call, 1 on the
// second, and so on. A layer that derives wire tags from a name takes a
// generation per use of the name, so that a later use never matches what an
// earlier one left in flight. Nothing is communicated: ranks that make the
// matching calls in the same order count the same generations. Like every
// Node method, for the owning goroutine only.
func (n *Node) Generation(key string) uint64 {
	if n.gens == nil {
		n.gens = make(map[string]uint64)
	}
	g := n.gens[key]
	n.gens[key] = g + 1
	return g
}

// Rank returns this node's rank in [0, Size()).
func (n *Node) Rank() int { return n.rank }

// Size returns the number of nodes in the machine.
func (n *Node) Size() int { return n.size }

// Clock returns the node's virtual clock.
func (n *Node) Clock() *vtime.Clock { return &n.clock }

// Comm returns the node's collective communicator (point-to-point available
// via Comm().Endpoint()).
func (n *Node) Comm() *collective.Comm { return n.coll }

// Profile returns the platform cost profile.
func (n *Node) Profile() vtime.Profile { return n.prof }

// Monitor returns the run's observability monitor (nil when the run is
// unmonitored; dsmon handles are nil-safe so callers need no check).
func (n *Node) Monitor() *dsmon.Monitor { return n.mon }

// Open opens a parallel file on this node (every node must open the file to
// use its collective operations).
func (n *Node) Open(name string, trunc bool) (*pfs.File, error) {
	return n.fs.Open(name, n.size, n.rank, &n.clock, trunc)
}

// OpenOver opens a parallel file on this node over its image, as
// pfs.FileSystem.OpenOver does.
func (n *Node) OpenOver(name string) (*pfs.File, error) {
	return n.fs.OpenOver(name, n.size, n.rank, &n.clock)
}

// Compute charges d virtual seconds of local computation.
func (n *Node) Compute(d float64) { n.clock.Advance(d) }

// CopyCost charges the memory-copy time for b bytes at the platform's copy
// bandwidth (the cost of packing data into per-node buffers).
func (n *Node) CopyCost(b int64) {
	n.clock.Advance(vtime.TransferTime(b, n.prof.MemCopyBW))
}

// Result summarizes one machine run.
type Result struct {
	// NodeTimes holds each node's final virtual clock.
	NodeTimes []float64
	// Elapsed is the run's virtual makespan: the maximum node time.
	Elapsed float64
	// MessagesSent and BytesSent aggregate point-to-point traffic across
	// all nodes (collectives included — they are built from messages).
	MessagesSent int
	BytesSent    int64
	// IO snapshots the file system's operation counters at run end. Note
	// that a shared FileSystem accumulates across runs; use the FileSystem's
	// ResetStats between phases for per-phase numbers.
	IO pfs.IOStats
	// Fanout is the shape the run's collectives had, which follows from
	// NProcs alone: 0 for the flat exchange, else the tree's fan-out.
	Fanout int
}

// Run executes body on every node of a machine described by cfg and waits
// for all nodes to finish. The first node error (or panic, converted to an
// error) aborts the run and is the error returned — first in time, not in
// rank: a node that fails takes the transport and the file system's
// rendezvous down with it so that its peers cannot hang, and what they then
// fail with is its doing, not the cause. Remaining goroutines are still
// waited for so no node leaks.
func Run(cfg Config, body func(*Node) error) (Result, error) {
	if cfg.NProcs <= 0 {
		return Result{}, fmt.Errorf("machine: NProcs must be positive, got %d", cfg.NProcs)
	}
	var tr comm.Transport
	switch cfg.Transport {
	case TransportChan:
		tr = comm.NewChanTransport(cfg.NProcs)
	case TransportTCP:
		var err error
		tr, err = comm.NewTCPTransport(cfg.NProcs)
		if err != nil {
			return Result{}, fmt.Errorf("machine: %w", err)
		}
	default:
		return Result{}, fmt.Errorf("machine: unknown transport %d", cfg.Transport)
	}
	base := tr // the real transport, kept for transport-specific wiring
	if cfg.WrapTransport != nil {
		tr = cfg.WrapTransport(tr)
	}
	defer tr.Close()

	fs := cfg.FS
	if fs == nil {
		fs = pfs.NewMemFS(cfg.Profile)
	}
	// A previous run on this file system may have been aborted (a node
	// failed); re-arm it so this run's collectives work.
	fs.ResetAbort()
	if cfg.Monitor != nil {
		fs.SetMonitor(cfg.Monitor)
		if tt, ok := base.(*comm.TCPTransport); ok {
			tt.SetMonitor(cfg.Monitor)
		}
		if ct, ok := base.(*comm.ChanTransport); ok {
			ct.SetMonitor(cfg.Monitor)
		}
	}

	nodes := make([]*Node, cfg.NProcs)
	errs := make([]error, cfg.NProcs)
	var first struct {
		sync.Mutex
		rank int
		err  error
	}
	var wg sync.WaitGroup
	for r := 0; r < cfg.NProcs; r++ {
		n := &Node{rank: r, size: cfg.NProcs, fs: fs, prof: cfg.Profile, mon: cfg.Monitor}
		n.ep = comm.NewEndpoint(r, cfg.NProcs, tr, &n.clock, cfg.Profile).SetMonitor(cfg.Monitor)
		if cfg.Retry != nil {
			n.ep.SetRetryPolicy(*cfg.Retry)
		}
		if cfg.RecvDeadline > 0 {
			n.ep.SetRecvDeadline(cfg.RecvDeadline)
		}
		n.coll = collective.New(n.ep)
		nodes[r] = n
	}
	for r := 0; r < cfg.NProcs; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("machine: node %d panicked: %v\n%s", r, p, debug.Stack())
				}
				if errs[r] != nil {
					first.Lock()
					if first.err == nil {
						first.rank, first.err = r, errs[r]
					}
					first.Unlock()
					// Unblock peers stuck in message receives or in file
					// system rendezvous waiting for this rank.
					fs.Abort(errs[r])
					tr.Close()
				}
			}()
			errs[r] = body(nodes[r])
		}()
	}
	wg.Wait()

	res := Result{NodeTimes: make([]float64, cfg.NProcs), IO: fs.Stats(), Fanout: nodes[0].coll.Fanout()}
	for r, n := range nodes {
		res.NodeTimes[r] = n.clock.Now()
		if res.NodeTimes[r] > res.Elapsed {
			res.Elapsed = res.NodeTimes[r]
		}
		st := n.ep.Stats()
		res.MessagesSent += st.Sent
		res.BytesSent += st.BytesSent
	}
	if first.err != nil {
		return res, fmt.Errorf("machine: node %d: %w", first.rank, first.err)
	}
	return res, nil
}
