package dsmon

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Add(0, "io", "x", 0, 1) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder not empty")
	}
}

func TestAddAndSortedEvents(t *testing.T) {
	r := NewRecorder()
	r.Add(1, "io", "b", 2.0, 3.0)
	r.Add(0, "io", "a", 1.0, 1.5)
	r.Add(0, "collective", "c", 2.0, 4.0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Name != "a" {
		t.Fatalf("first event %q, want a", evs[0].Name)
	}
	// Same start: lower node first.
	if evs[1].Node != 0 || evs[2].Node != 1 {
		t.Fatalf("tie-break order wrong: %+v", evs[1:])
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestAddNormalizesReversedInterval(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "io", "rev", 5, 2)
	e := r.Events()[0]
	if e.Start != 2 || e.End != 5 {
		t.Fatalf("interval not normalized: %+v", e)
	}
}

func TestChromeJSON(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "io", "WriteAt f", 0.001, 0.002)
	r.Add(1, "collective", "ParallelAppend f", 0.002, 0.010)
	var b strings.Builder
	if err := r.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(parsed.TraceEvents))
	}
	e0 := parsed.TraceEvents[0]
	if e0.Ph != "X" || e0.Ts != 1000 || e0.Dur != 1000 {
		t.Fatalf("event 0 = %+v (want complete event, µs units)", e0)
	}
	if parsed.TraceEvents[1].Tid != 1 {
		t.Fatalf("tid = %d", parsed.TraceEvents[1].Tid)
	}
}

func TestGantt(t *testing.T) {
	r := NewRecorder()
	r.Add(0, "io", "w", 0, 0.5)
	r.Add(1, "collective", "p", 0.5, 1.0)
	var b strings.Builder
	if err := r.WriteGantt(&b, 20); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "node  0 |") || !strings.Contains(out, "node  1 |") {
		t.Fatalf("missing node rows:\n%s", out)
	}
	// Node 0's bar is #, node 1's is =, and they occupy opposite halves.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row0, row1 := lines[1], lines[2]
	if !strings.Contains(row0, "#") || strings.Contains(row0, "=") {
		t.Fatalf("row0 marks wrong: %s", row0)
	}
	if !strings.Contains(row1, "=") || strings.Contains(row1, "#") {
		t.Fatalf("row1 marks wrong: %s", row1)
	}
}

func TestGanttEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewRecorder().WriteGantt(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no events") {
		t.Fatalf("empty gantt output: %q", b.String())
	}
}
