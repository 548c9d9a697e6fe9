package pfs

import "sync/atomic"

// IOStats counts the file-system operations of one machine run — the
// quantity that explains the paper's tables: the unbuffered baseline issues
// one small call per field per element, while the buffered variants issue a
// handful of parallel operations.
type IOStats struct {
	Opens             int64
	IndependentWrites int64
	IndependentReads  int64
	ParallelAppends   int64
	ParallelReads     int64
	ControlSyncs      int64
	BytesWritten      int64
	BytesRead         int64
	// IORetries counts backend operations re-issued after a transient
	// storage fault or short transfer (zero on a healthy run).
	IORetries int64
}

// ioCounters is the atomic backing store inside FileSystem.
type ioCounters struct {
	opens             atomic.Int64
	independentWrites atomic.Int64
	independentReads  atomic.Int64
	parallelAppends   atomic.Int64
	parallelReads     atomic.Int64
	controlSyncs      atomic.Int64
	bytesWritten      atomic.Int64
	bytesRead         atomic.Int64
	ioRetries         atomic.Int64
}

func (c *ioCounters) snapshot() IOStats {
	return IOStats{
		Opens:             c.opens.Load(),
		IndependentWrites: c.independentWrites.Load(),
		IndependentReads:  c.independentReads.Load(),
		ParallelAppends:   c.parallelAppends.Load(),
		ParallelReads:     c.parallelReads.Load(),
		ControlSyncs:      c.controlSyncs.Load(),
		BytesWritten:      c.bytesWritten.Load(),
		BytesRead:         c.bytesRead.Load(),
		IORetries:         c.ioRetries.Load(),
	}
}

// Stats returns a snapshot of the operation counters.
func (fs *FileSystem) Stats() IOStats { return fs.counters.snapshot() }

// ResetStats zeroes the operation counters (between measurement phases).
// Each counter is stored to zero individually: reassigning the whole
// ioCounters struct would copy atomic.Int64 values and race with
// concurrent increments from node goroutines.
func (fs *FileSystem) ResetStats() {
	c := &fs.counters
	c.opens.Store(0)
	c.independentWrites.Store(0)
	c.independentReads.Store(0)
	c.parallelAppends.Store(0)
	c.parallelReads.Store(0)
	c.controlSyncs.Store(0)
	c.bytesWritten.Store(0)
	c.bytesRead.Store(0)
	c.ioRetries.Store(0)
}
