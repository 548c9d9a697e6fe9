//go:build linux

package server

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// memfd_create(2) and the file-sealing fcntl(2) commands, which the syscall
// package does not name on every architecture.
const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1024 + 9
	fGetSeals       = 1024 + 10
	sealSeal        = 0x1
	sealShrink      = 0x2
	sealGrow        = 0x4
)

// memfdCreate is memfd_create's system call number on this architecture; 0
// where it is not known, and there the daemon offers no shared chunks.
func memfdCreate() uintptr {
	switch runtime.GOARCH {
	case "amd64":
		return 319
	case "arm64", "riscv64", "loong64":
		return 279
	case "386":
		return 356
	case "arm":
		return 385
	case "ppc64", "ppc64le":
		return 360
	case "s390x":
		return 350
	}
	return 0
}

// newChunkFile makes the file behind one connection's shared chunks: a memfd
// of n chunks, sized and then sealed against shrinking, growing and further
// sealing, so that no client can make the daemon's mapping fault. It returns
// the fd, which the caller passes to the client and closes, and the daemon's
// own mapping of it.
func newChunkFile(n int) (fd int, mem []byte, err error) {
	nr := memfdCreate()
	if nr == 0 {
		return -1, nil, fmt.Errorf("dstreamd: memfd_create unknown on %s", runtime.GOARCH)
	}
	name, err := syscall.BytePtrFromString("dstreamd")
	if err != nil {
		return -1, nil, err
	}
	r, _, e := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), mfdCloexec|mfdAllowSealing, 0)
	if e != 0 {
		return -1, nil, fmt.Errorf("dstreamd: memfd_create: %w", e)
	}
	fd = int(r)
	size := n * chunkBytes
	if err = syscall.Ftruncate(fd, int64(size)); err != nil {
		err = fmt.Errorf("dstreamd: sizing the chunk file: %w", err)
	} else if _, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fAddSeals, sealShrink|sealGrow|sealSeal); e != 0 {
		err = fmt.Errorf("dstreamd: sealing the chunk file: %w", e)
	} else if mem, err = syscall.Mmap(fd, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED); err != nil {
		err = fmt.Errorf("dstreamd: mapping the chunk file: %w", err)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	return fd, mem, nil
}

// mapChunkFile maps the n chunks of a chunk file received at hello, once it
// has checked that the file holds them all and can neither shrink nor grow:
// a daemon that could shrink it would make this process fault.
func mapChunkFile(fd, n int) ([]byte, error) {
	seals, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	if e != 0 {
		return nil, fmt.Errorf("dstreamd: the chunk file's seals: %w", e)
	}
	if seals&(sealShrink|sealGrow) != sealShrink|sealGrow {
		return nil, fmt.Errorf("dstreamd: chunk file is not sealed (seals %#x)", seals)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, fmt.Errorf("dstreamd: the chunk file's size: %w", err)
	}
	if size := int64(n) * chunkBytes; st.Size != size {
		return nil, fmt.Errorf("dstreamd: chunk file of %d bytes for %d chunks", st.Size, n)
	}
	return syscall.Mmap(fd, 0, n*chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// unmapChunks releases a mapping made by newChunkFile or mapChunkFile.
func unmapChunks(mem []byte) { syscall.Munmap(mem) } //nolint:errcheck // only fails for a range that was never mapped

// writeWithFile writes b, one frame, to the unix connection c with the file
// fd riding along as SCM_RIGHTS.
func writeWithFile(c net.Conn, b []byte, fd int) error {
	uc, ok := c.(*net.UnixConn)
	if !ok {
		return fmt.Errorf("dstreamd: cannot pass a file over %s", c.RemoteAddr().Network())
	}
	n, _, err := uc.WriteMsgUnix(b, syscall.UnixRights(fd), nil)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// readHelloHead is readFrameHead for the hello reply, which on a unix
// connection may carry a file: its fd, or -1. Any further files are closed.
func readHelloHead(c net.Conn) (tag uint8, rest int, fd int, err error) {
	uc, ok := c.(*net.UnixConn)
	if !ok {
		_, tag, rest, err = readFrameHead(c)
		return tag, rest, -1, err
	}
	var hdr [frameHeadBytes]byte
	oob := make([]byte, syscall.CmsgSpace(4*4))
	n, oobn, _, _, err := uc.ReadMsgUnix(hdr[:], oob)
	fd = -1
	if oobn > 0 {
		if msgs, perr := syscall.ParseSocketControlMessage(oob[:oobn]); perr == nil {
			for i := range msgs {
				fds, _ := syscall.ParseUnixRights(&msgs[i])
				for _, f := range fds {
					if fd < 0 {
						fd = f
						syscall.CloseOnExec(f)
					} else {
						syscall.Close(f)
					}
				}
			}
		}
	}
	if err == nil && n < len(hdr) {
		_, err = io.ReadFull(c, hdr[n:])
	}
	if err == nil {
		_, tag, rest, err = parseFrameHead(&hdr)
	}
	if err != nil && fd >= 0 {
		syscall.Close(fd)
		fd = -1
	}
	return tag, rest, fd, err
}

// closeFile closes a received or created file descriptor.
func closeFile(fd int) { syscall.Close(fd) } //nolint:errcheck
