//go:build !linux

package server

import (
	"errors"
	"net"
)

// Shared chunks need memfd_create and an abstract unix socket, both Linux's;
// elsewhere every transfer crosses in its frame.

var errNoChunkFiles = errors.New("dstreamd: shared chunks need linux")

func newChunkFile(int) (int, []byte, error)     { return -1, nil, errNoChunkFiles }
func mapChunkFile(int, int) ([]byte, error)     { return nil, errNoChunkFiles }
func unmapChunks([]byte)                        {}
func writeWithFile(net.Conn, []byte, int) error { return errNoChunkFiles }
func closeFile(int)                             {}
func readHelloHead(c net.Conn) (uint8, int, int, error) {
	_, tag, rest, err := readFrameHead(c)
	return tag, rest, -1, err
}
