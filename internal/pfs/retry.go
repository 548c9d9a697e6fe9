package pfs

import (
	"errors"
	"fmt"

	"pcxxstreams/internal/dsmon"
)

// ErrTransient marks a storage fault worth retrying: a short read or write
// that can be resumed, an EINTR-style hiccup, an injected chaos fault.
// Permanent faults (FaultyBackend's ErrInjected, corrupt offsets, genuine
// EOF) do not wrap it and propagate immediately.
var ErrTransient = errors.New("pfs: transient fault")

// IsTransient reports whether err is a retryable storage fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// ioMaxAttempts bounds *consecutive zero-progress* attempts: any attempt
// that moves bytes resets the budget, since progress proves the device is
// alive (a chunky-but-healthy backend may legitimately take many short
// transfers to finish one large request). Storage retries carry no
// virtual-time backoff (the disk model already charges transfer time); the
// bound only ensures a permanently-stalled backend surfaces a clean error
// instead of spinning.
const ioMaxAttempts = 8

// retryAt moves len(p) bytes between p and b at off — out of p when write is
// set, into it otherwise — resuming after short transfers and retrying
// transient faults until ioMaxAttempts consecutive attempts make no
// progress. fs (may be nil) counts each extra attempt. Non-transient errors —
// including a genuine io.EOF — propagate with the partial count, preserving
// the io.ReaderAt contract.
func retryAt(b Backend, write bool, p []byte, off int64, fs *FileSystem) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	done, stalls := 0, 0
	for {
		var n int
		var err error
		if write {
			n, err = b.WriteAt(p[done:], off+int64(done))
		} else {
			n, err = b.ReadAt(p[done:], off+int64(done))
		}
		if n > 0 {
			done += n
			stalls = 0
		} else {
			stalls++
		}
		if done == len(p) {
			return done, nil
		}
		if err != nil && !IsTransient(err) {
			return done, err
		}
		if stalls >= ioMaxAttempts {
			if err == nil {
				err = ErrTransient
			}
			op := "read"
			if write {
				op = "write"
			}
			return done, fmt.Errorf("pfs: %s at %d: retries exhausted after %d stalled attempts: %w",
				op, off, stalls, err)
		}
		// Transient fault, or a short transfer with nil error: re-issue for
		// the remainder. Progress already made is kept.
		if fs != nil {
			fs.countIORetry()
		}
	}
}

// resilientBackend is the retry layer the file system slips between itself
// and whatever the factory produced. Transient faults (chaos injection,
// short transfers) are absorbed here, so every caller above — independent
// reads/writes, parallel appends and reads — sees either a complete
// transfer or a clean non-transient error. Note the wrap order with the
// fault injectors: InjectFault's FaultyBackend wraps *outside* this layer,
// so its permanent faults are deliberately not retried, while a chaos
// factory wraps the raw store *inside* it, so its transient faults are.
type resilientBackend struct {
	Backend
	fs *FileSystem
}

func (rb *resilientBackend) ReadAt(p []byte, off int64) (int, error) {
	return retryAt(rb.Backend, false, p, off, rb.fs)
}

func (rb *resilientBackend) WriteAt(p []byte, off int64) (int, error) {
	return retryAt(rb.Backend, true, p, off, rb.fs)
}

// SetMonitor forwards the observability hookup to the wrapped backend, so
// instrumented backends (the striped fan-out histogram) are reachable
// through the resilient layer the file system always interposes.
func (rb *resilientBackend) SetMonitor(m *dsmon.Monitor) {
	attachBackendMonitor(rb.Backend, m)
}

// countIORetry accounts one storage retry in both the machine-run stats and
// the dsmon registry.
func (fs *FileSystem) countIORetry() {
	fs.counters.ioRetries.Add(1)
	fs.met.retries.Inc()
}
