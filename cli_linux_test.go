//go:build linux

package pcxxstreams

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pcxxstreams/internal/server"
)

// TestCLIDstreamdSharedChunks runs the built dstreamd as a second process on
// a loopback address with telemetry, and moves 8 MiB through it from this
// one: written, read back byte for byte, every chunk of it across a mapping
// the two processes share, which /metrics must show. The file that mapping
// lives in, received here over the daemon's socket as any client receives
// it, must refuse to be resized (EPERM): no client can make the daemon fault.
func TestCLIDstreamdSharedChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cmd := exec.Command(filepath.Join(buildTools(t), "dstreamd"),
		"-addr", "127.0.0.1:0", "-telemetry", "127.0.0.1:0", "-tenants", "cli")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt) //nolint:errcheck
		cmd.Wait()                       //nolint:errcheck
	}()
	var addr, metrics string
	for sc := bufio.NewScanner(stdout); (addr == "" || metrics == "") && sc.Scan(); {
		line := sc.Text()
		if i := strings.Index(line, " on "); strings.HasPrefix(line, "dstreamd: serving ") && i > 0 {
			addr = line[i+len(" on "):]
		}
		if a, ok := strings.CutPrefix(line, "dstreamd: telemetry on "); ok {
			metrics = a
		}
	}
	if addr == "" || metrics == "" {
		t.Fatalf("dstreamd printed no addresses (daemon %q, telemetry %q)", addr, metrics)
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck

	cli, err := server.Dial(addr, server.ClientConfig{Tenant: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := cli.OpenBackend("eight")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8<<20)
	for i := range want {
		want[i] = byte(i*7 + i>>13)
	}
	if _, err := b.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := b.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("8 MiB through dstreamd: %v, equal %v", err, bytes.Equal(got, want))
	}
	if n := scrapeCounter(t, metrics, "dstreamd_chunk_transfers_total"); n < 16 {
		t.Fatalf("dstreamd_chunk_transfers_total = %d after 8 MiB each way, want at least 16", n)
	}
	if n := scrapeCounter(t, metrics, `dstreamd_inline_transfers_total{reason="no_mapping"}`); n != 0 {
		t.Fatalf("%d transfers crossed framed, with no shared chunks", n)
	}

	fd := receiveChunkFile(t, addr)
	defer syscall.Close(fd)
	for _, size := range []int64{0, 64 << 20} {
		if err := syscall.Ftruncate(fd, size); !errors.Is(err, syscall.EPERM) {
			t.Errorf("ftruncate of the received chunk file to %d = %v, want EPERM", size, err)
		}
	}
}

// scrapeCounter reads one sample off a Prometheus text page.
func scrapeCounter(t *testing.T, url, sample string) int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("%s has no %s", url, sample)
	return 0
}

// receiveChunkFile says a v2 hello asking for shared chunks on the same-host
// socket of the daemon at addr, as a client does, and returns the file that
// comes back with the reply.
func receiveChunkFile(t *testing.T, addr string) int {
	t.Helper()
	c, err := net.Dial("unix", "@dstreamd/"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	// prefix, id 0, hello, tenant, empty token, version 2, shared chunks
	hello := binary.LittleEndian.AppendUint64(make([]byte, 4), 0)
	hello = append(hello, 1)
	hello = binary.LittleEndian.AppendUint32(hello, 3)
	hello = append(hello, "cli"...)
	hello = binary.LittleEndian.AppendUint32(hello, 0)
	hello = binary.LittleEndian.AppendUint32(hello, 2)
	hello = binary.LittleEndian.AppendUint32(hello, 1)
	binary.LittleEndian.PutUint32(hello, uint32(len(hello)-4))
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	buf, oob := make([]byte, 512), make([]byte, syscall.CmsgSpace(4))
	_, oobn, _, _, err := c.(*net.UnixConn).ReadMsgUnix(buf, oob)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(msgs) != 1 {
		t.Fatalf("hello reply: %d control messages (%v), want the chunk file", len(msgs), err)
	}
	fds, err := syscall.ParseUnixRights(&msgs[0])
	if err != nil || len(fds) != 1 {
		t.Fatalf("hello reply: %d files (%v), want 1", len(fds), err)
	}
	return fds[0]
}
