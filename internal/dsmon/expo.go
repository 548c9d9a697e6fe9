package dsmon

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// sample is one exposition row: a metric handle plus its desc, flattened
// so both exposition formats can iterate families uniformly.
type sample struct {
	d    desc
	kind string // "counter" | "gauge" | "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// gather snapshots the registry into samples sorted by (name, labels).
func (r *Registry) gather() []sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cols := r.collectors
	r.mu.Unlock()
	for _, c := range cols {
		c.f()
	}
	r.mu.Lock()
	out := make([]sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		out = append(out, sample{d: c.d, kind: "counter", c: c})
	}
	for _, g := range r.gauges {
		out = append(out, sample{d: g.d, kind: "gauge", g: g})
	}
	for _, h := range r.hists {
		out = append(out, sample{d: h.d, kind: "histogram", h: h})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].d.name != out[j].d.name {
			return out[i].d.name < out[j].d.name
		}
		return out[i].d.labels < out[j].d.labels
	})
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promName renders `name{labels}` (or bare name when unlabeled), with
// extra label pairs appended (the histogram `le`).
func promName(d desc, extra ...string) string {
	labels := d.labels
	if e := renderLabels(extra); e != "" {
		if labels != "" {
			labels += ","
		}
		labels += e
	}
	if labels == "" {
		return d.name
	}
	return d.name + "{" + labels + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE pair per family, then the
// samples. Deterministic order: families by name, samples by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writeProm(w, r.gather())
}

// writeProm renders pre-gathered samples (sorted by name, then labels).
func writeProm(w io.Writer, samples []sample) error {
	lastFamily := ""
	for _, s := range samples {
		if s.d.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				s.d.name, s.d.help, s.d.name, s.kind); err != nil {
				return err
			}
			lastFamily = s.d.name
		}
		var err error
		switch s.kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", promName(s.d), s.c.Value())
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %s\n", promName(s.d), fmtFloat(s.g.Value()))
		case "histogram":
			var cum int64
			for i, b := range s.h.bounds {
				cum += s.h.buckets[i].Load()
				if _, err = fmt.Fprintf(w, "%s %d\n",
					promBucketName(s.d, fmtFloat(b)), cum); err != nil {
					return err
				}
			}
			cum += s.h.buckets[len(s.h.bounds)].Load()
			if _, err = fmt.Fprintf(w, "%s %d\n", promBucketName(s.d, "+Inf"), cum); err != nil {
				return err
			}
			sumD, countD := s.d, s.d
			sumD.name += "_sum"
			countD.name += "_count"
			// _count is the cumulative +Inf bucket, not a separate Count()
			// load: with ranks observing concurrently, two loads could tear
			// (count ahead of buckets or vice versa); deriving one from the
			// other keeps each exposition internally consistent.
			if _, err = fmt.Fprintf(w, "%s %s\n%s %d\n",
				promName(sumD), fmtFloat(s.h.Sum()),
				promName(countD), cum); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promBucketName renders the `name_bucket{…,le="bound"}` sample name.
func promBucketName(d desc, le string) string {
	bd := d
	bd.name += "_bucket"
	return promName(bd, "le", le)
}

// Snapshot is the JSON form of the registry at one instant.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistSnap is one histogram's snapshot; Buckets holds cumulative counts
// per upper bound, with the +Inf bucket equal to Count.
type HistSnap struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Bounds  []float64         `json:"bounds"`
	Buckets []int64           `json:"buckets"`
}

// labelMap parses the rendered label string back into a map for JSON.
func labelMap(labels string) map[string]string {
	if labels == "" {
		return nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		out[k] = strings.Trim(v, `"`)
	}
	return out
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistSnap{},
	}
	for _, s := range r.gather() {
		switch s.kind {
		case "counter":
			snap.Counters = append(snap.Counters, CounterSnap{
				Name: s.d.name, Labels: labelMap(s.d.labels), Value: s.c.Value(),
			})
		case "gauge":
			snap.Gauges = append(snap.Gauges, GaugeSnap{
				Name: s.d.name, Labels: labelMap(s.d.labels), Value: s.g.Value(),
			})
		case "histogram":
			hs := HistSnap{
				Name: s.d.name, Labels: labelMap(s.d.labels),
				Sum:     s.h.Sum(),
				Bounds:  append([]float64(nil), s.h.bounds...),
				Buckets: make([]int64, len(s.h.bounds)+1),
			}
			var cum int64
			for i := range s.h.buckets {
				cum += s.h.buckets[i].Load()
				hs.Buckets[i] = cum
			}
			// Count derives from the buckets (see WritePrometheus): each
			// bucket is monotone, so successive snapshots never show a
			// count that disagrees with the bucket sums or goes backward.
			hs.Count = cum
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}

// quantileFromBuckets estimates the q-quantile (0 ≤ q ≤ 1) from cumulative
// bucket counts by linear interpolation inside the containing bucket —
// the standard Prometheus histogram_quantile estimate. The first bucket
// interpolates from 0; values above the last bound clamp to it.
func quantileFromBuckets(bounds []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: no upper bound to interpolate toward; report
			// the largest finite bound as the best available estimate.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo, loCount := 0.0, int64(0)
		if i > 0 {
			lo, loCount = bounds[i-1], cum[i-1]
		}
		width := float64(c - loCount)
		if width == 0 {
			return bounds[i]
		}
		return lo + (bounds[i]-lo)*(rank-float64(loCount))/width
	}
	return bounds[len(bounds)-1]
}

// Quantile estimates the q-quantile of the snapshotted distribution.
func (s HistSnap) Quantile(q float64) float64 {
	return quantileFromBuckets(s.Bounds, s.Buckets, q)
}

// P50 is Quantile(0.50).
func (s HistSnap) P50() float64 { return s.Quantile(0.50) }

// P95 is Quantile(0.95).
func (s HistSnap) P95() float64 { return s.Quantile(0.95) }

// P99 is Quantile(0.99).
func (s HistSnap) P99() float64 { return s.Quantile(0.99) }

// Quantile estimates the q-quantile of the live histogram from a consistent
// cumulative-bucket snapshot.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum := make([]int64, len(h.buckets))
	var c int64
	for i := range h.buckets {
		c += h.buckets[i].Load()
		cum[i] = c
	}
	return quantileFromBuckets(h.bounds, cum, q)
}

// Delta returns s - prev element-wise, matching rows by (name, labels);
// rows absent from prev pass through unchanged: successive cumulative
// snapshots become per-interval rates.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	ckey := func(c CounterSnap) string { return c.Name + "\x00" + renderLabelMap(c.Labels) }
	hkey := func(h HistSnap) string { return h.Name + "\x00" + renderLabelMap(h.Labels) }
	prevC := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevC[ckey(c)] = c.Value
	}
	prevH := make(map[string]HistSnap, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevH[hkey(h)] = h
	}
	out := Snapshot{
		Counters:   make([]CounterSnap, len(s.Counters)),
		Gauges:     append([]GaugeSnap{}, s.Gauges...), // gauges are levels, not cumulative
		Histograms: make([]HistSnap, len(s.Histograms)),
	}
	for i, c := range s.Counters {
		c.Value -= prevC[ckey(c)]
		out.Counters[i] = c
	}
	for i, h := range s.Histograms {
		if p, ok := prevH[hkey(h)]; ok && len(p.Buckets) == len(h.Buckets) {
			h.Count -= p.Count
			h.Sum -= p.Sum
			bk := make([]int64, len(h.Buckets))
			for j := range h.Buckets {
				bk[j] = h.Buckets[j] - p.Buckets[j]
			}
			h.Buckets = bk
		}
		out.Histograms[i] = h
	}
	return out
}

// renderLabelMap renders a label map back to the sorted canonical string.
func renderLabelMap(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, m[k])
	}
	return b.String()
}
