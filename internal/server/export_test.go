package server

// Network reports the network of the client's current connection: "unix"
// when it reached the daemon over the same-host socket, "tcp" otherwise.
func (c *Client) Network() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.RemoteAddr().Network()
}
