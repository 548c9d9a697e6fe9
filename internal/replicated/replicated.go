// Package replicated implements the paper's §4.2 facility for I/O on local
// data that is replicated on every node of a distributed-memory machine:
// "The pC++ compiler automatically transforms programs to insure that local
// data is output and input by only one node. For input, the data is
// broadcast to the rest of the nodes after it is read."
//
// Every node calls the same operations SPMD-style; node 0 performs the
// actual file I/O, writes are de-duplicated, and reads are broadcast.
package replicated

import (
	"fmt"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
)

// File is a node-replicated view of one file: a sequential read/write
// cursor whose operations hit storage exactly once regardless of the node
// count.
type File struct {
	node   *machine.Node
	f      *pfs.File
	cursor int64
}

// Open opens (creating/truncating if trunc) the named file on all nodes.
func Open(node *machine.Node, name string, trunc bool) (*File, error) {
	f, err := node.Open(name, trunc)
	if err != nil {
		return nil, fmt.Errorf("replicated: %w", err)
	}
	// Open is collective: no node may touch the file until every node holds
	// it (otherwise a fast node's write could race a slow node's
	// truncate-on-open).
	if err := node.Comm().Barrier(); err != nil {
		f.Close()
		return nil, fmt.Errorf("replicated: open sync: %w", err)
	}
	return &File{node: node, f: f}, nil
}

// Write appends p once (from node 0); all nodes advance their cursor and
// synchronize.
func (r *File) Write(p []byte) error {
	_, frame, err := r.node.Comm().Rooted(0, func() ([]byte, error) { return nil, r.f.WriteAt(p, r.cursor) })
	bufpool.Put(frame)
	if err != nil {
		return fmt.Errorf("replicated: write: %w", err)
	}
	r.cursor += int64(len(p))
	return nil
}

// Read reads the next n bytes once (on node 0) and broadcasts them to every
// node, as the pC++ compiler transformation does for input of replicated
// data. The bytes returned are the caller's.
func (r *File) Read(n int) ([]byte, error) {
	buf := make([]byte, n)
	payload, frame, err := r.node.Comm().Rooted(0, func() ([]byte, error) { return buf, r.f.ReadAt(buf, r.cursor) })
	if err != nil {
		return nil, fmt.Errorf("replicated: read: %w", err)
	}
	copy(buf, payload)
	bufpool.Put(frame)
	r.cursor += int64(n)
	return buf, nil
}

// Close releases the handle on every node.
func (r *File) Close() error { return r.f.Close() }
