package server

import "pcxxstreams/internal/enc"

// Network reports the network of the client's current connection: "unix"
// when it reached the daemon over the same-host socket, "tcp" otherwise.
func (c *Client) Network() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.RemoteAddr().Network()
}

// NewChunkFile makes a sealed chunk file of n chunks, as the daemon does at a
// v2 hello: its fd and a mapping of it.
func NewChunkFile(n int) (int, []byte, error) { return newChunkFile(n) }

// ChunkCounts reports the bytes read replies copied out of shared chunks and
// writes copied into them, the buffers asked for on a connection with shared
// chunks that found no run free, the runs held now, and the connection's
// shared chunks (0 without).
func (c *Client) ChunkCounts() (copiedOut, copiedIn int64, pooled, held, granted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shm != nil {
		granted = len(c.shm.busy)
	}
	return c.copiedOut, c.copiedIn, c.pooled, len(c.runs), granted
}

// Buffer asks for a read buffer as a pfs.BufferSource does.
func (c *Client) Buffer(n int) []byte { return c.buffer(n) }

// Mapped reports whether b starts at a chunk of the current connection's
// shared chunks.
func (c *Client) Mapped(b []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shm == nil || cap(b) == 0 {
		return false
	}
	for k := range c.shm.busy {
		if &b[:1][0] == &c.shm.mem[k*chunkBytes] {
			return true
		}
	}
	return false
}

// HeldInFlight returns the chunks that reads into held runs, pending now, are
// to fill, and keeps the current connection's mapping mapped until done.
func (c *Client) HeldInFlight() (chunks [][]byte, done func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.shm
	for _, cl := range c.pending {
		if cl.held && cl.into != nil && cl.m == m {
			chunks = append(chunks, chunkAt(m.mem, cl.k))
		}
	}
	m.users.Add(1)
	return chunks, m.users.Done
}

// HeldWritesInFlight returns the data of the writes from held runs pending
// now — each the chunk its request names, as the daemon stores it — and the
// offsets they are stored at, and keeps the current connection's mapping
// mapped until done.
func (c *Client) HeldWritesInFlight() (data [][]byte, offs []int64, done func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.shm
	for _, cl := range c.pending {
		if cl.held && cl.payload != nil && cl.m == m {
			r := enc.NewReader(cl.head[opOffset+1:])
			r.Raw(int(r.Uint32())) // the file's name
			data, offs = append(data, cl.payload), append(offs, r.Int64())
		}
	}
	m.users.Add(1)
	return data, offs, m.users.Done
}
