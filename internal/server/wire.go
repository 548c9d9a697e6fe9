// Package server implements dstreamd, a ViPIOS-style multi-tenant I/O
// daemon for d/streams: a long-running process in which dedicated I/O ranks
// own the parallel file system while many independent client sessions open,
// append, and read streams over TCP — or, on the daemon's own host, over a
// unix socket whose frames hand the payload over in shared memory.
//
// The split mirrors ViPIOS's architecture (client compute processes talking
// to dedicated I/O server processes) mapped onto this repository's stack:
// the client side exposes the daemon as a pfs.Backend, so the entire
// existing machinery — the resilient retry layer, striped-geometry-aware
// two-phase aggregation, read-ahead prefetching, chaos hardening — runs
// unchanged against remote storage. The server side adds what a shared
// daemon needs and a single-program library does not: per-tenant namespaces
// and byte quotas, admission control and credit-based backpressure when
// aggregate demand exceeds the stripe bandwidth, session resume across
// client disconnects, and per-tenant observability on one /metrics page.
//
// # Wire protocol
//
// One connection per session, carrying length-prefixed frames both ways: TCP,
// or the abstract unix socket a daemon bound to a loopback literal also
// serves (sameHostSocket), which a client dialing that literal tries first.
// Requests are tagged with a client-chosen id and may complete out of order
// (the client multiplexes concurrent rank goroutines onto the one
// connection); every request produces exactly one response with the same
// id. All integers are little-endian; strings and byte blobs are u32
// length-prefixed.
//
//	frame    := len(u32) payload
//	request  := id(u64) op(u8) body
//	response := id(u64) status(u8) body
//
// The hello is the one versioned frame. A v1 hello is tenant and token; its
// reply is the resume token and five reserved fields (window, quota, used,
// resumed, eager) that nothing reads. A v2 hello appends version(u32) = 2 and
// a features word; its reply is the token, version, the features granted,
// the number of shared chunks N and the chunk size. A daemon that predates v2
// ignores the trailing bytes and answers v1, so a v2 client falls back to
// frames; a v1 hello still gets the v1 reply, byte for byte. The client sends
// v2 only over the same-host socket, so TCP frames are v1's.
//
//	hello v1 := tenant token                     → token window quota used resumed eager
//	hello v2 := tenant token version features    → token version features N chunk
//
// The one feature bit so far is featSharedChunks. Granted, the hello reply
// carries a memfd as SCM_RIGHTS: N = 2 × Config.StripeFactor chunks of
// chunkBytes, sealed against shrinking and growing, which both sides map.
// Then a read or write whose data fits a free chunk names the chunk instead of
// carrying the data — the same fields as its framed form, the chunk behind
// them:
//
//	readChunk  := name off n chunk → chunk n  (OK, EOF: the data is in the chunk)
//	writeChunk := name off n chunk → n        (the data was in the chunk)
//
// A transient reply to either is its framed form (a read's partial data rides
// in the frame), as is every refusal. A transfer that finds no chunk free, and
// every transfer over TCP, goes framed.
//
// Requests are stateless with respect to file handles — reads and writes
// name the file, and the server resolves names against the session's tenant
// namespace — which is what makes a resend after reconnect idempotent: the
// same bytes at the same offset of the same file.
//
// Transient storage faults under the daemon (chaos injection, short
// transfers) are reported with statusTransient and re-wrapped as
// pfs.ErrTransient on the client, so the client file system's retry layer
// absorbs them exactly as it does for local storage. Quota breaches,
// unknown tenants, and admission rejections are permanent statuses and
// surface as clean errors.
//
// Every frame leaves as one write: the prefix and the head in one small
// buffer, and a data payload — a write's bytes, a read reply's — behind it as
// the second iovec of the same vectored write. Each side has one decode
// loop, which reads the prefix, id and op or status and then sends the rest
// of the frame where it belongs, with no frame-sized buffer in between.
//
// # Ownership
//
// A chunk crosses the daemon without being copied between buffers: out of
// the caller's slice into the socket, off the socket into one pooled buffer,
// into the store; and back the same way. Over shared chunks it crosses with
// one copy: the caller's slice into a chunk the store reads, or a chunk the
// store filled into the caller's slice. Nothing owns a payload by holding a
// copy of it, so who may touch which bytes, and when, is a rule:
//
//   - The caller's p. WriteAt's p is the frame's second iovec and ReadAt's p
//     is where readLoop puts the reply's data; the call borrows it from the
//     moment the caller enters until the caller returns, and no longer. The
//     caller's own first send completes before it parks. After that only a
//     resend (reconnect) reads a write's p, and only while the caller is
//     still parked: Close and fail set broken before they release any
//     caller, the resend loop checks broken — holding wmu — before each
//     frame, and a caller released with an error passes through wmu before
//     it returns, so a resend already inside a frame finishes first.
//   - A call. It is in pending, where Close, fail and the next reconnect find
//     it, or it belongs to readLoop, which took it out to deliver its reply.
//     While readLoop fills p nobody else can release the caller. If the
//     connection tears inside the body the call goes back into pending, to
//     be resent on the next connection — the same bytes land at the same
//     offsets — unless the session is already broken, in which case it is
//     failed with that error. It is never dropped: a dropped call is a hung
//     rank. A read reply whose data length disagrees with its frame, or
//     exceeds len(p), is a corrupt stream and goes the way of a torn one.
//   - The daemon's pooled payload. A write's data is read off the socket into
//     one bufpool buffer sized for the data alone (the head stays in the
//     connection's read buffer, so a 1 MiB chunk takes the 1 MiB class);
//     submitWrite owns it and puts it back exactly once — at a refusal
//     (unopened file, offset out of range, quota, admission closed by
//     shutdown) or on the I/O rank after the store's WriteAt has returned,
//     not before: a striped store hands slices of it to several children at
//     once. A read's buffer is taken by the I/O rank, which reads into it
//     and queues the reply with it; the connection's writer puts it back
//     once the reply is written, or dropped because the connection died.
//     The daemon refuses data above chunkBytes, so it never asks the pool
//     for more than that class.
//   - A shared chunk. It belongs to one side at a time, and the socket
//     carries the hand-over: no counter is shared. Only the client allocates
//     chunks, from its free list for the connection. A request hands chunk k
//     to the daemon — a write's data already copied in — and its reply hands
//     it back: the daemon lets go of it (held[k]) just before it queues the
//     reply, after the store has returned; the client puts it back on its
//     free list once a read's data is copied out. The daemon refuses a
//     request naming a chunk it already holds, or one past N. A resend after
//     reconnect takes a chunk of the new connection's mapping and copies the
//     caller's p into it again. Each side unmaps a connection's chunks only
//     once nothing can touch them: the daemon after handleConn has drained
//     every reply owed, the client when that connection's readLoop exits and
//     the last copy into the mapping is done. Under -tags pooldebug the side
//     that lets go of a chunk without data for the other poisons it first.
//   - The daemon's reply queue. Every reply of a connection leaves through
//     its one writer, never from an I/O rank, so no rank waits on a
//     client's socket. The connection's reader takes a queue slot before it
//     serves a request, so queueing the reply never blocks; a full queue
//     parks that reader, and so only the client that stopped reading. A
//     request's share of the tenant window is released by the writer too,
//     after its reply: a client that stops reading holds its own tenant's
//     window, and nobody else's.
//
// Replies other than a read's data — control replies, and every transient
// reply, which carries a message and then its partial data or count — are
// read whole into a small buffer of their own and decoded by the caller;
// partial progress reaches the pfs retry layer that way.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"

	"pcxxstreams/internal/bufpool"
)

// Protocol limits.
const (
	// maxFrame bounds one wire frame; requests are chunked client-side well
	// below it, so anything larger is a corrupt stream.
	maxFrame = 16 << 20
	// chunkBytes is the client-side transfer granularity: larger reads and
	// writes are split so no single frame monopolizes the connection and
	// credit accounting stays fine-grained. The daemon refuses a larger data
	// payload, so the pooled buffer it moves a chunk through is never above
	// this class.
	chunkBytes = 1 << 20
	// maxHead bounds what a frame carries besides a data payload — a control
	// body, a write's name and offset — and sizes the connection's read
	// buffer, which the daemon decodes those from in place. Names are paths;
	// this is two PATH_MAX.
	maxHead = 8 << 10
)

// Request opcodes. The v1 hello reply's five fields behind the token are
// reserved: the daemon still sends them, so that a v1 peer reads the frame it
// expects, and nothing reads them. The daemon alone meters a tenant's bytes
// (Config.StripeFactor).
const (
	opHello      uint8 = iota + 1 // tenant, token[, version, features] → see the package doc
	opOpen                        // name → size, stripe unit, stripe factor
	opRead                        // name, off, n → eof, data
	opWrite                       // name, off, data → n
	opTrunc                       // name, size → –
	opSize                        // name → size
	opUsage                       // – → used, quota
	opBye                         // – → –
	opReadChunk                   // name, off, n, chunk → chunk, n
	opWriteChunk                  // name, off, n, chunk → n
)

// The v2 hello.
const (
	wireVersion = 2
	// featSharedChunks asks for shared chunks, and in the reply grants them.
	featSharedChunks uint32 = 1 << 0
	// maxChunks bounds N: a daemon offers no more, a client maps no more.
	maxChunks = 1 << 10
)

// Response statuses.
const (
	statusOK        uint8 = iota // body per op
	statusEOF                    // read only: data (possibly short) + genuine EOF
	statusTransient              // retryable storage fault; body: msg (+ partial data/count)
	statusQuota                  // tenant byte quota exceeded; body: msg
	statusAuth                   // unknown tenant / bad hello; body: msg
	statusBusy                   // admission refused (session limit); body: msg
	statusErr                    // permanent failure; body: msg
)

func opName(op uint8) string {
	switch op {
	case opHello:
		return "hello"
	case opOpen:
		return "open"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opTrunc:
		return "trunc"
	case opSize:
		return "size"
	case opUsage:
		return "usage"
	case opBye:
		return "bye"
	case opReadChunk:
		return "read-chunk"
	case opWriteChunk:
		return "write-chunk"
	}
	return fmt.Sprintf("op(%d)", op)
}

// sameHostSocket names the abstract unix socket that a daemon whose TCP
// address is the loopback literal addr also listens on, and that a client
// dialing addr tries first; "" for any other address. A same-host client
// then skips the loopback TCP stack, and its v2 hello can ask for shared
// chunks, which only a unix socket can pass.
func sameHostSocket(addr string) string {
	if runtime.GOOS != "linux" {
		return "" // abstract socket names are Linux's
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return ""
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return "@dstreamd/" + net.JoinHostPort(ip.String(), port)
	}
	return ""
}

// newFrame starts a frame: four bytes reserved for the length prefix, then
// the id and the op or status. The put* encoders append the rest of its head.
func newFrame(id uint64, tag uint8) []byte {
	return putU8(putU64(make([]byte, 4, 64), id), tag)
}

// writeFrame sends one frame as one write: head is a buffer begun by
// newFrame, whose length prefix is filled in here, and tail — a bulk payload
// the head's last field announces, or nil — rides behind it as the second
// iovec of the same write. The caller serializes writers; a head may be
// written again (the client's resend) and reads back the same.
func writeFrame(w io.Writer, head, tail []byte) error {
	binary.LittleEndian.PutUint32(head, uint32(len(head)-4+len(tail)))
	if len(tail) == 0 {
		_, err := w.Write(head)
		return err
	}
	bufs := net.Buffers{head, tail}
	_, err := bufs.WriteTo(w)
	return err
}

// Every frame opens with its prefix, id and op or status; minFrame is the
// least a prefix can declare, and opOffset is where the op or status sits.
const (
	minFrame       = 8 + 1
	frameHeadBytes = 4 + minFrame
	opOffset       = 4 + 8
)

// readFrameHead reads a frame's prefix, id and op or status; rest is how many
// bytes of the frame are still on r. A length no frame can have is an error:
// the stream cannot be re-synchronized past it.
func readFrameHead(r io.Reader) (id uint64, tag uint8, rest int, err error) {
	var hdr [frameHeadBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	return parseFrameHead(&hdr)
}

// parseFrameHead decodes the head readFrameHead reads.
func parseFrameHead(hdr *[frameHeadBytes]byte) (id uint64, tag uint8, rest int, err error) {
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < minFrame || n > maxFrame {
		return 0, 0, 0, fmt.Errorf("dstreamd: frame of %d bytes is outside %d..%d", n, minFrame, maxFrame)
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], int(n) - minFrame, nil
}

// chunkAt is chunk k of a connection's shared mapping.
func chunkAt(mem []byte, k int) []byte {
	return mem[k*chunkBytes : (k+1)*chunkBytes : (k+1)*chunkBytes]
}

// poisonChunk fills a chunk its holder lets go of with bufpool's poison, under
// -tags pooldebug, so that a side reading a chunk it no longer owns fails byte
// identity. The race detector cannot see a mapping; this is its check.
func poisonChunk(b []byte) {
	if !bufpool.Debug || len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// --- append-style encoders ---

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func putStr(b []byte, s string) []byte { return append(putU32(b, uint32(len(s))), s...) }
