package pfs

import (
	"bytes"
	"strings"
	"testing"

	"pcxxstreams/internal/dsmon"
	"pcxxstreams/internal/vtime"
)

// TestAsyncIssueCompletionFlow pins the async-io causal edge: every
// asynchronous collective operation records an issue span on the caller's
// timeline, a background disk span reaching to the virtual completion, and
// an edge from issue to disk — with the disk span starting where the issue
// span ends and ending at the completion time the caller was promised.
func TestAsyncIssueCompletionFlow(t *testing.T) {
	prof := testProfile()
	fs := NewMemFS(prof)
	mon := dsmon.NewTracing()
	fs.SetMonitor(mon)
	rec := mon.Recorder()

	completions := make([]float64, 3)
	spmdFS(t, fs, 3, func(rank int, clock *vtime.Clock) error {
		h, err := fs.Open("f", 3, rank, clock, true)
		if err != nil {
			return err
		}
		defer h.Close()
		_, completion, err := h.ParallelAppendAsync(bytes.Repeat([]byte{byte('a' + rank)}, 512))
		if err != nil {
			return err
		}
		completions[rank] = completion
		if h.LastAsyncSpan() == 0 {
			return nil // recorder attached, so this must not happen; checked below
		}
		return nil
	})

	byID := map[dsmon.SpanID]dsmon.Event{}
	for _, ev := range rec.Events() {
		if ev.ID != 0 {
			byID[ev.ID] = ev
		}
	}
	var asyncEdges int
	for _, f := range rec.Flows() {
		if f.Kind != "async-io" {
			continue
		}
		asyncEdges++
		issue, ok := byID[f.From]
		if !ok {
			t.Fatalf("edge %v has dangling issue span", f)
		}
		disk, ok := byID[f.To]
		if !ok {
			t.Fatalf("edge %v has dangling disk span", f)
		}
		if issue.Node != disk.Node {
			t.Fatalf("issue on node %d but disk span on node %d", issue.Node, disk.Node)
		}
		if !strings.HasSuffix(disk.Name, " (async)") || disk.Cat != "io" {
			t.Fatalf("disk span = %+v, want an io span named '… (async)'", disk)
		}
		if disk.Start != issue.End {
			t.Fatalf("disk span starts at %v, want the issue span's end %v", disk.Start, issue.End)
		}
		if disk.End != completions[disk.Node] {
			t.Fatalf("disk span ends at %v, want the promised completion %v",
				disk.End, completions[disk.Node])
		}
		if disk.End < disk.Start {
			t.Fatalf("disk span %+v ends before it starts", disk)
		}
	}
	if asyncEdges != 3 {
		t.Fatalf("got %d async-io edges, want one per rank (3)", asyncEdges)
	}
}
