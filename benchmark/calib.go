package main

import (
	"runtime"
	"time"
)

// The box this benchmark is judged on is a small VM on a shared host, and its
// speed moves: for minutes at a time everything that touches memory runs 1.3
// to 1.8 times slower than it did before, the workloads and a plain memcpy
// alike, while a register-only loop does not move at all. No run length the
// time budget allows averages that out, and no quantile of the phase times
// escapes it. So every cycle the benchmark also times a fixed piece of work
// of its own, the reference round trip below, and reports the three
// time-based end-to-end metrics at the speed the box has when it is calm:
// a phase that took t while the round trip ran at 0.7 of its calm speed
// counts as 0.7 t. README.md has the measurements behind this.

// reference is the benchmark's own plain round trip over a fixed share of a
// run's elements, shaped like the work it stands in for: nprocs standing
// goroutines each encode their part with plainEnc, the caller appends the
// parts to one byte slice (the "file"), and each goroutine copies its part
// back out and decodes it with plainDec into fresh slices. It uses nothing
// of the library, so a change to the code under test cannot move it.
type reference struct {
	bytes               int64   // encoded size of the reference elements
	nominal             float64 // the workload's refMBps
	mallocs, allocBytes uint64  // what one round trip allocates

	cmd   [nprocs]chan bool // true: encode your part; false: take it back and decode it
	done  chan struct{}
	parts [nprocs][]byte
	offs  [nprocs + 1]int
	file  []byte
}

func newReference[T any](ops *elemOps[T], elems []T, nominal float64) *reference {
	r := &reference{nominal: nominal, done: make(chan struct{}, nprocs)}
	back := make([]T, len(elems))
	for g := range r.cmd {
		lo, hi := g*len(elems)/nprocs, (g+1)*len(elems)/nprocs
		r.cmd[g] = make(chan bool)
		go func() {
			var buf []byte
			for encode := range r.cmd[g] {
				if encode {
					buf = ops.plainEnc(elems[lo:hi], buf[:0])
					r.parts[g] = buf
				} else {
					copy(buf, r.file[r.offs[g]:r.offs[g+1]])
					ops.plainDec(buf, back[lo:hi])
				}
				r.done <- struct{}{}
			}
		}()
	}
	// One trip grows the buffers; the second allocates what every later one
	// will, which is taken off the run's allocation counts.
	r.roundTrip()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.roundTrip()
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.bytes = int64(len(r.file))
	return r
}

func (r *reference) all(encode bool) {
	for g := range r.cmd {
		r.cmd[g] <- encode
	}
	for range r.cmd {
		<-r.done
	}
}

// roundTrip must not run beside anything else: the cycle driver calls it from
// a barrier, with every rank parked.
func (r *reference) roundTrip() time.Duration {
	t := time.Now()
	r.all(true)
	r.file = r.file[:0]
	for g, p := range r.parts {
		r.file = append(r.file, p...)
		r.offs[g+1] = len(r.file)
	}
	r.all(false)
	return time.Since(t)
}

// speed is how fast the box was during a round trip that took d, as a share
// of the reference box's calm speed.
func (r *reference) speed(d time.Duration) float64 {
	return float64(r.bytes) / 1e6 / max(d.Seconds(), 1e-9) / r.nominal
}

func (r *reference) stop() {
	for g := range r.cmd {
		close(r.cmd[g])
	}
}
