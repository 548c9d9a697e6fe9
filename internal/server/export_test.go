package server

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
