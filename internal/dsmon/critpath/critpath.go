// Package critpath turns a causal span graph (dsmon.Recorder events plus
// flow edges) into an attribution of virtual time: where did each rank's
// wall time go, and what chain of operations actually bounded the run.
//
// Three views are computed:
//
//   - Per-rank timeline decomposition: each rank's [0, makespan] interval is
//     partitioned exclusively among categories — at every instant the most
//     specific covering span wins, gaps count as compute — so the per-rank
//     rows sum exactly to the makespan.
//   - Stall accounts: inclusive per-family sums of the dstream stall spans.
//     These intervals are, by construction, the same intervals the
//     dstream_refill_stall_seconds / dstream_twophase_shuffle_stall_seconds
//     histograms observe, so the two accountings agree.
//   - Critical path: a backward walk from the last span to time zero,
//     stepping to whichever predecessor (same-rank previous span or causal
//     in-edge) bounded each span's start, attributing span durations to
//     their categories and inter-span gaps to compute.
package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pcxxstreams/internal/dsmon"
)

// Category names. Report maps sum virtual seconds per category.
const (
	CatCompute  = "compute"
	CatEncode   = "encode"
	CatShuffle  = "shuffle stall"
	CatRefill   = "refill stall"
	CatFlush    = "flush stall"
	CatDrain    = "drain stall"
	CatPFSWait  = "pfs wait"
	CatBarrier  = "barrier skew"
	CatComm     = "comm"
	CatRetry    = "retry/backoff"
	CatAsyncIO  = "async io" // background disk work; excluded from rank timelines
	CatPrefetch = "prefetch"
)

// classify maps a span's (cat, name) to its attribution category.
func classify(cat, name string) string {
	switch cat {
	case "comm":
		if name == "backoff" {
			return CatRetry
		}
		return CatComm
	case "io":
		if hasSuffix(name, " (async)") {
			return CatAsyncIO
		}
		return CatPFSWait
	case "collective":
		// pfs rendezvous events carry the operation + file name; pure
		// interconnect collectives carry the bare op name.
		switch {
		case hasPrefix(name, "ParallelAppend"), hasPrefix(name, "ParallelRead"),
			hasPrefix(name, "ControlSync"), hasPrefix(name, "collective"):
			return CatPFSWait
		default:
			return CatBarrier
		}
	case "dstream":
		switch {
		case hasPrefix(name, "ostream.Insert"):
			return CatEncode
		case hasPrefix(name, "twophase.shuffle"):
			return CatShuffle
		case hasPrefix(name, "istream.Read"), hasPrefix(name, "istream.UnsortedRead"):
			return CatRefill
		case hasPrefix(name, "ostream.Write"):
			return CatFlush
		case hasPrefix(name, "ostream.Drain"):
			return CatDrain
		case hasPrefix(name, "istream.prefetch"):
			return CatPrefetch
		}
	}
	return cat
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
func hasSuffix(s, p string) bool { return len(s) >= len(p) && s[len(s)-len(p):] == p }

// priority orders categories for the exclusive timeline decomposition:
// when spans nest (a Send inside a barrier inside a shuffle inside a record
// flush), the instant is charged to the innermost — highest-priority —
// activity. Higher wins.
func priority(cat string) int {
	switch cat {
	case CatRetry:
		return 9
	case CatComm:
		return 8
	case CatPFSWait:
		return 7
	case CatBarrier:
		return 6
	case CatEncode:
		return 5
	case CatShuffle:
		return 4
	case CatPrefetch:
		return 3
	case CatRefill, CatDrain:
		return 2
	case CatFlush:
		return 1
	default:
		return 0
	}
}

// RankBreakdown is one rank's exclusive timeline decomposition over
// [0, makespan]: the per-category seconds sum to Total.
type RankBreakdown struct {
	Rank    int                `json:"rank"`
	Total   float64            `json:"total"`
	Seconds map[string]float64 `json:"seconds"`
}

// Named returns the fraction of the rank's wall time attributed to a named
// category (all categories, compute included, are named — the interesting
// complement is how much is *not* idle compute).
func (b RankBreakdown) Named() float64 {
	if b.Total == 0 {
		return 0
	}
	// Sorted-key order: float addition is not associative, and a map's
	// iteration order would move the last ulp from run to run.
	cats := make([]string, 0, len(b.Seconds))
	for c := range b.Seconds {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	var sum float64
	for _, c := range cats {
		sum += b.Seconds[c]
	}
	return sum / b.Total
}

// PathStep is one span on the critical path (walked backward, stored
// forward).
type PathStep struct {
	Node     int     `json:"node"`
	Category string  `json:"category"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// Report is the full critical-path analysis artifact.
type Report struct {
	// Makespan is the latest span end — the run's virtual wall time.
	Makespan float64 `json:"makespan"`
	// Ranks holds the exclusive per-rank decompositions, ascending rank.
	Ranks []RankBreakdown `json:"ranks"`
	// Stalls holds the inclusive stall-span family sums across ranks
	// (CatRefill, CatShuffle, CatFlush, CatDrain). Each equals the sum of
	// the matching dstream stall histogram, because the spans cover exactly
	// the observed intervals.
	Stalls map[string]float64 `json:"stalls"`
	// PathSeconds attributes the critical path's virtual time per category
	// (gaps between path spans count as compute).
	PathSeconds map[string]float64 `json:"path_seconds"`
	// Steps is the critical path itself, earliest first.
	Steps []PathStep `json:"steps"`
	// Spans and Flows count the graph's size.
	Spans int `json:"spans"`
	Flows int `json:"flows"`
}

// Analyze builds the report from a recorder's span graph. A nil or empty
// recorder yields an empty report.
func Analyze(rec *dsmon.Recorder) *Report {
	rep := &Report{
		Stalls:      map[string]float64{},
		PathSeconds: map[string]float64{},
	}
	if rec == nil {
		return rep
	}
	events := rec.Events()
	flows := rec.Flows()
	rep.Spans = len(events)
	rep.Flows = len(flows)
	if len(events) == 0 {
		return rep
	}

	perRank := map[int][]dsmon.Event{}
	maxRank := 0
	for _, e := range events {
		if e.End > rep.Makespan {
			rep.Makespan = e.End
		}
		if e.Node > maxRank {
			maxRank = e.Node
		}
		perRank[e.Node] = append(perRank[e.Node], e)
		switch classify(e.Cat, e.Name) {
		case CatRefill:
			rep.Stalls[CatRefill] += e.End - e.Start
		case CatShuffle:
			rep.Stalls[CatShuffle] += e.End - e.Start
		case CatFlush:
			rep.Stalls[CatFlush] += e.End - e.Start
		case CatDrain:
			rep.Stalls[CatDrain] += e.End - e.Start
		}
	}

	for r := 0; r <= maxRank; r++ {
		rep.Ranks = append(rep.Ranks, decomposeRank(r, perRank[r], rep.Makespan))
	}
	rep.walkPath(events, flows)
	return rep
}

// decomposeRank partitions [0, horizon] on one rank's timeline: elementary
// intervals between span boundaries are charged to the highest-priority
// covering span's category, uncovered intervals to compute.
func decomposeRank(rank int, evs []dsmon.Event, horizon float64) RankBreakdown {
	b := RankBreakdown{Rank: rank, Total: horizon, Seconds: map[string]float64{}}
	type bound struct {
		t     float64
		open  bool
		categ string
	}
	var bounds []bound
	for _, e := range evs {
		c := classify(e.Cat, e.Name)
		if c == CatAsyncIO {
			// Background disk work overlaps the node's own activity; charging
			// it to the rank's timeline would eat into (and misstate) compute.
			continue
		}
		bounds = append(bounds, bound{e.Start, true, c}, bound{e.End, false, c})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })
	active := map[string]int{}
	prev := 0.0
	charge := func(upto float64) {
		if upto <= prev {
			return
		}
		best, bestPrio := CatCompute, -1
		for c, n := range active {
			if n > 0 && priority(c) > bestPrio {
				best, bestPrio = c, priority(c)
			}
		}
		b.Seconds[best] += upto - prev
		prev = upto
	}
	for _, bd := range bounds {
		charge(bd.t)
		if bd.open {
			active[bd.categ]++
		} else {
			active[bd.categ]--
		}
	}
	charge(horizon)
	return b
}

// walkPath performs the backward critical-path walk: start from the span
// with the latest end; at every step, move to the predecessor with the
// latest end among the same-rank span preceding this one and the sources of
// causal in-edges; the positive gap between the predecessor's end and the
// span's start is compute.
func (rep *Report) walkPath(events []dsmon.Event, flows []dsmon.Flow) {
	byID := map[dsmon.SpanID]dsmon.Event{}
	perRank := map[int][]dsmon.Event{}
	for _, e := range events {
		if e.ID != 0 {
			byID[e.ID] = e
		}
		perRank[e.Node] = append(perRank[e.Node], e) // already (start, node) sorted
	}
	inEdges := map[dsmon.SpanID][]dsmon.SpanID{}
	for _, f := range flows {
		if f.From != f.To {
			inEdges[f.To] = append(inEdges[f.To], f.From)
		}
	}

	// Deterministic start: latest end, ties broken by (start, node, name).
	cur := events[0]
	for _, e := range events[1:] {
		if e.End > cur.End ||
			(e.End == cur.End && (e.Start > cur.Start ||
				(e.Start == cur.Start && (e.Node < cur.Node ||
					(e.Node == cur.Node && e.Name < cur.Name))))) {
			cur = e
		}
	}

	visited := map[dsmon.SpanID]bool{}
	var steps []PathStep
	for range events { // bounded: each step visits a new span
		c := classify(cur.Cat, cur.Name)
		steps = append(steps, PathStep{Node: cur.Node, Category: c, Name: cur.Name, Start: cur.Start, End: cur.End})
		rep.PathSeconds[c] += cur.End - cur.Start
		if cur.ID != 0 {
			visited[cur.ID] = true
		}

		var pred dsmon.Event
		found := false
		better := func(e dsmon.Event) bool {
			if !found {
				return true
			}
			if e.End != pred.End {
				return e.End > pred.End
			}
			if e.Start != pred.Start {
				return e.Start > pred.Start
			}
			return e.Node < pred.Node
		}
		// Same-rank predecessor: the latest span ending at or before this
		// one's start (what serialized the rank's own timeline).
		for _, e := range perRank[cur.Node] {
			if e.Start >= cur.Start {
				break
			}
			if e.End <= cur.Start && !(e.ID != 0 && visited[e.ID]) && better(e) {
				pred, found = e, true
			}
		}
		// Causal in-edges: whoever enabled this span, possibly on another
		// rank; their end may reach into (Start, End] (a Recv span starts
		// waiting before the Send completes).
		for _, from := range inEdges[cur.ID] {
			if e, ok := byID[from]; ok && e.End <= cur.End && !visited[e.ID] && better(e) {
				pred, found = e, true
			}
		}
		if !found {
			break
		}
		if gap := cur.Start - pred.End; gap > 0 {
			rep.PathSeconds[CatCompute] += gap
		}
		cur = pred
	}
	if cur.Start > 0 {
		rep.PathSeconds[CatCompute] += cur.Start
	}
	// Walked backward; report forward.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	rep.Steps = steps
}

// Publish exports the per-rank attribution as critpath_seconds{category=…}
// gauges (summed across ranks) into reg; a nil registry is a no-op.
func (rep *Report) Publish(reg *dsmon.Registry) {
	totals := map[string]float64{}
	for _, b := range rep.Ranks {
		for c, v := range b.Seconds {
			totals[c] += v
		}
	}
	for c, v := range totals {
		reg.Gauge("critpath_seconds",
			"virtual seconds attributed per category by the critical-path analyzer, summed over ranks",
			"category", c).Set(v)
	}
}

// categories returns the union of category keys in deterministic order:
// descending total seconds, then name.
func categories(ms ...map[string]float64) []string {
	tot := map[string]float64{}
	for _, m := range ms {
		for c, v := range m {
			tot[c] += v
		}
	}
	out := make([]string, 0, len(tot))
	for c := range tot {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if tot[out[i]] != tot[out[j]] {
			return tot[out[i]] > tot[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// WriteText renders the human-readable report.
func (rep *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical-path analysis: %d spans, %d edges, makespan %.6fs\n",
		rep.Spans, rep.Flows, rep.Makespan); err != nil {
		return err
	}
	if rep.Spans == 0 {
		_, err := fmt.Fprintln(w, "(no spans recorded — run with tracing enabled)")
		return err
	}

	rankMaps := make([]map[string]float64, 0, len(rep.Ranks))
	for _, b := range rep.Ranks {
		rankMaps = append(rankMaps, b.Seconds)
	}
	cats := categories(rankMaps...)
	fmt.Fprintf(w, "\nper-rank attribution (exclusive, %% of makespan):\n")
	fmt.Fprintf(w, "%-6s", "rank")
	for _, c := range cats {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, b := range rep.Ranks {
		fmt.Fprintf(w, "%-6d", b.Rank)
		for _, c := range cats {
			pct := 0.0
			if b.Total > 0 {
				pct = 100 * b.Seconds[c] / b.Total
			}
			fmt.Fprintf(w, " %13.1f%%", pct)
		}
		fmt.Fprintln(w)
	}

	if len(rep.Stalls) > 0 {
		fmt.Fprintf(w, "\nstall accounts (inclusive span sums, all ranks):\n")
		for _, c := range categories(rep.Stalls) {
			fmt.Fprintf(w, "  %-16s %.6fs\n", c, rep.Stalls[c])
		}
	}

	fmt.Fprintf(w, "\ncritical path (%d steps):\n", len(rep.Steps))
	for _, c := range categories(rep.PathSeconds) {
		fmt.Fprintf(w, "  %-16s %.6fs\n", c, rep.PathSeconds[c])
	}
	n := len(rep.Steps)
	show := rep.Steps
	if n > 12 {
		show = rep.Steps[n-12:]
		fmt.Fprintf(w, "  … last 12 of %d steps:\n", n)
	}
	for _, st := range show {
		if _, err := fmt.Fprintf(w, "  node %2d  %-14s %-36s [%.6f, %.6f]\n",
			st.Node, st.Category, st.Name, st.Start, st.End); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}
