package pfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pcxxstreams/internal/bufpool"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// TestParallelReadAsyncCompletion: the async collective read returns the
// same bytes as the synchronous one, immediately in real time, with a
// virtual completion at or after the call — and a rank that syncs to the
// completion ends up exactly where the synchronous reader would have.
func TestParallelReadAsyncCompletion(t *testing.T) {
	prof := testProfile()
	write := func(fs *FileSystem) {
		spmdFS(t, fs, 3, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("f", 3, rank, clock, true)
			if err != nil {
				return err
			}
			defer h.Close()
			_, err = h.ParallelAppend(bytes.Repeat([]byte{byte('a' + rank)}, 512))
			return err
		})
	}
	syncFS, asyncFS := NewMemFS(prof), NewMemFS(prof)
	write(syncFS)
	write(asyncFS)

	var syncTimes, asyncTimes []float64
	var syncData, asyncData [][]byte
	collect := func(fs *FileSystem, async bool) ([]float64, [][]byte) {
		data := make([][]byte, 3)
		times := spmdFS(t, fs, 3, func(rank int, clock *vtime.Clock) error {
			h, err := fs.Open("f", 3, rank, clock, false)
			if err != nil {
				return err
			}
			defer h.Close()
			rg := Range{Off: int64(rank) * 512, Len: 512}
			if async {
				got, completion, err := h.ParallelReadIntoAsync(rg, nil)
				if err != nil {
					return err
				}
				if completion < clock.Now() {
					return fmt.Errorf("completion %f before issue-side clock %f", completion, clock.Now())
				}
				data[rank] = got
				clock.SyncTo(completion)
				return nil
			}
			got, err := h.ParallelRead(rg)
			data[rank] = got
			return err
		})
		return times, data
	}
	syncTimes, syncData = collect(syncFS, false)
	asyncTimes, asyncData = collect(asyncFS, true)
	for r := 0; r < 3; r++ {
		if !bytes.Equal(syncData[r], asyncData[r]) {
			t.Errorf("rank %d: async bytes differ from sync", r)
		}
		if want := bytes.Repeat([]byte{byte('a' + r)}, 512); !bytes.Equal(asyncData[r], want) {
			t.Errorf("rank %d: wrong bytes", r)
		}
		if syncTimes[r] != asyncTimes[r] {
			t.Errorf("rank %d: sync-then-SyncTo clock %f != synchronous read clock %f",
				r, asyncTimes[r], syncTimes[r])
		}
		bufpool.Put(syncData[r])
		bufpool.Put(asyncData[r])
	}
}

// TestStripedFanoutConcurrent: many goroutines hammer one striped backend
// with overlapping multi-cell reads and disjoint writes, while one more
// truncates it to its final size (so the image is the same whoever wins)
// between looks at Size and reads across what the children have not grown
// over yet; under -race this is the fan-out's data-race certificate, and the
// final image must match a flat reference.
func TestStripedFanoutConcurrent(t *testing.T) {
	const workers, span = 8, 1 << 15
	flat := NewMemBackend()
	striped, err := NewStripedMemBackend(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(w int) []byte {
		b := make([]byte, span/workers)
		for i := range b {
			b[i] = byte(w*31 + i)
		}
		return b
	}
	for _, b := range []Backend{flat, striped} {
		b := b
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				data := pattern(w)
				off := int64(w * len(data))
				if _, err := b.WriteAt(data, off); err != nil {
					t.Error(err)
					return
				}
				// Overlapping wide reads race only against the (disjoint)
				// writers; content is checked after the barrier.
				buf := make([]byte, len(data)*2)
				b.ReadAt(buf, off/2)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, span/4)
			for i := 0; i < 16; i++ {
				if err := b.Truncate(span); err != nil {
					t.Error(err)
					return
				}
				if sz := b.Size(); sz != span {
					t.Errorf("Size %d after Truncate(%d)", sz, span)
				}
				b.ReadAt(buf, int64(i)*span/16)
			}
		}()
		wg.Wait()
	}
	a := make([]byte, span)
	c := make([]byte, span)
	if _, err := flat.ReadAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := striped.ReadAt(c, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("striped image differs from flat after concurrent fan-out")
	}
}

// TestStripedFanoutErrorWins: a failing child surfaces the error from the
// whole fan-out with zero progress reported, for both directions.
// readFailer passes writes through and fails every read — so a striped
// store can be populated and then exercise the read fan-out's error path.
type readFailer struct{ Backend }

func (r readFailer) ReadAt(p []byte, off int64) (int, error) { return 0, ErrInjected }

func TestStripedFanoutErrorWins(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 64) // 8 cells of 8: all three children involved

	broken := []Backend{NewMemBackend(), NewFaultyBackend(NewMemBackend(), 0), NewMemBackend()}
	s, err := NewStripedBackend(broken, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.WriteAt(data, 0); err == nil || n != 0 {
		t.Fatalf("WriteAt with failing child = (%d, %v), want (0, error)", n, err)
	}

	s2, err := NewStripedBackend([]Backend{NewMemBackend(), readFailer{NewMemBackend()}, NewMemBackend()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.ReadAt(make([]byte, 64), 0); err == nil || n != 0 {
		t.Fatalf("ReadAt with failing child = (%d, %v), want (0, error)", n, err)
	}
}

// TestStripedFanoutMetric: multi-cell operations on a monitored file system
// observe their concurrent-child width in pfs_stripe_fanout; single-child
// operations do not.
func TestStripedFanoutMetric(t *testing.T) {
	mon := dsmon.New()
	fs := NewFileSystem(testProfile(), StripedMemFactory(4, 16))
	fs.SetMonitor(mon)
	spmdFS(t, fs, 1, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", 1, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		// 64 bytes over unit 16 × 4 children: width 4.
		if _, err := h.ParallelAppend(bytes.Repeat([]byte{1}, 64)); err != nil {
			return err
		}
		// A single-cell read must not observe.
		buf := make([]byte, 8)
		return h.ReadAt(buf, 0)
	})
	hist := mon.Registry().Histogram("pfs_stripe_fanout", "", fanoutBuckets)
	if c := hist.Count(); c == 0 {
		t.Fatal("no fanout observations from a 4-cell append")
	}
	if sum, c := hist.Sum(), hist.Count(); sum/float64(c) < 2 {
		t.Errorf("mean fanout %.1f < 2 over %d observations", sum/float64(c), c)
	}
}

// TestOpenTruncateCounted: a truncating open is counted, with the bytes of old
// image it dropped, once per open generation; a non-truncating open is not.
func TestOpenTruncateCounted(t *testing.T) {
	mon := dsmon.New()
	fs := NewFileSystem(testProfile(), StripedMemFactory(4, 16))
	fs.SetMonitor(mon)
	var clock vtime.Clock
	cycle := func(trunc bool, n int) {
		t.Helper()
		h, err := fs.Open("f", 1, 0, &clock, trunc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ParallelAppend(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle(true, 1000) // drops the empty image
	cycle(false, 24)  // appends, drops nothing
	cycle(true, 7)    // drops 1024
	reg := mon.Registry()
	if got := reg.Counter("pfs_truncates_total", "").Value(); got != 2 {
		t.Errorf("pfs_truncates_total = %d, want 2", got)
	}
	if got := reg.Counter("pfs_truncated_bytes_total", "").Value(); got != 1024 {
		t.Errorf("pfs_truncated_bytes_total = %d, want 1024", got)
	}
}

// TestStripedFanoutMonitorLateBind: attaching the monitor after files exist
// still reaches the striped backends through the resilient wrapper.
func TestStripedFanoutMonitorLateBind(t *testing.T) {
	fs := NewFileSystem(testProfile(), StripedMemFactory(3, 16))
	mon := dsmon.New()
	spmdFS(t, fs, 1, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", 1, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		fs.SetMonitor(mon) // late: the file is already open
		_, err = h.ParallelAppend(bytes.Repeat([]byte{1}, 96))
		return err
	})
	if mon.Registry().Histogram("pfs_stripe_fanout", "", fanoutBuckets).Count() == 0 {
		t.Fatal("late-bound monitor saw no fanout observations")
	}
}
