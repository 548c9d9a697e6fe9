package dsmon_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/scf"
	"pcxxstreams/internal/vtime"
)

// TestSnapshotDelta: counters and histogram buckets subtract element-wise,
// gauges pass through as levels, and rows new since prev pass unchanged.
func TestSnapshotDelta(t *testing.T) {
	reg := dsmon.NewRegistry()
	c := reg.Counter("ops_total", "", "kind", "put")
	g := reg.Gauge("depth", "")
	h := reg.Histogram("lat", "", []float64{1, 10})
	c.Add(5)
	g.Set(3)
	h.Observe(0.5)
	prev := reg.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(0.5)
	h.Observe(100)
	cur := reg.Snapshot()

	d := cur.Delta(prev)
	if d.Counters[0].Value != 7 {
		t.Fatalf("counter delta = %d, want 7", d.Counters[0].Value)
	}
	if d.Gauges[0].Value != 9 {
		t.Fatalf("gauge delta = %v, want the level 9", d.Gauges[0].Value)
	}
	hs := d.Histograms[0]
	if hs.Count != 2 || hs.Sum != 100.5 {
		t.Fatalf("histogram delta count=%d sum=%v, want 2, 100.5", hs.Count, hs.Sum)
	}
	want := []int64{1, 1, 2}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("bucket delta %v, want %v", hs.Buckets, want)
		}
	}
}

// TestExpositionRaceHammer runs a real machine workload while a snapshot
// goroutine and two scraper goroutines hammer Snapshot, WritePrometheus and
// WriteChromeJSON mid-run. Under -race this is the torn-read detector; the
// assertions check snapshot self-consistency (Count equals the +Inf bucket)
// and cross-snapshot monotonicity of every histogram's count.
func TestExpositionRaceHammer(t *testing.T) {
	mon := dsmon.NewTracing()
	reg := mon.Registry()

	done := make(chan struct{})
	scrape := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			var sb strings.Builder
			if err := mon.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			sb.Reset()
			if err := mon.WriteChromeJSON(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}
	go scrape()
	go scrape()

	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		lastCount := map[string]int64{}
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			snap := reg.Snapshot()
			for _, h := range snap.Histograms {
				inf := h.Buckets[len(h.Buckets)-1]
				if h.Count != inf {
					t.Errorf("torn snapshot: %s count %d != +Inf bucket %d", h.Name, h.Count, inf)
				}
				// Histograms are labeled families — key per child, not per name.
				keys := make([]string, 0, len(h.Labels))
				for k := range h.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				key := h.Name
				for _, k := range keys {
					key += "{" + k + "=" + h.Labels[k] + "}"
				}
				if h.Count < lastCount[key] {
					t.Errorf("histogram %s count went backward: %d after %d", key, h.Count, lastCount[key])
				}
				lastCount[key] = h.Count
			}
		}
	}()

	_, err := machine.Run(machine.Config{
		NProcs: 4, Profile: vtime.CM5(), Monitor: mon,
	}, func(n *machine.Node) error {
		d, err := distr.New(16, 4, distr.Cyclic, 0)
		if err != nil {
			return err
		}
		c, err := collection.New[scf.Segment](n, d)
		if err != nil {
			return err
		}
		for rec := 0; rec < 12; rec++ {
			rec := rec
			c.Apply(func(g int, s *scf.Segment) { s.Fill(g+100*rec, 16) })
			s, err := dstream.Open(n, d, "hammer", dstream.WithStrategy(dstream.StrategyTwoPhase))
			if err != nil {
				return err
			}
			if err := dstream.Insert[scf.Segment](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	close(done)
	<-snapped
}
