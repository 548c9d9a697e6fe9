package dsmon

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestChromeJSONGolden pins the exact Chrome trace-viewer output: field
// names, microsecond units, (start, node) event ordering, and the category
// set the stack emits. chrome://tracing and Perfetto both parse this shape;
// a drift here silently breaks every saved trace, so the comparison is
// byte-for-byte.
func TestChromeJSONGolden(t *testing.T) {
	r := NewRecorder()
	// Added out of order on purpose: output must sort by (start, node).
	r.Add(1, "collective", "barrier", 0.002, 0.0025)
	r.Add(0, "io", "ParallelAppend f", 0.001, 0.002)
	r.Add(0, "dstream", "ostream.Write f", 0.0005, 0.003)
	r.Add(1, "comm", "Send", 0.001, 0.0011)

	var b strings.Builder
	if err := r.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "ostream.Write f",
   "cat": "dstream",
   "ph": "X",
   "ts": 500,
   "dur": 2500,
   "pid": 0,
   "tid": 0
  },
  {
   "name": "ParallelAppend f",
   "cat": "io",
   "ph": "X",
   "ts": 1000,
   "dur": 1000,
   "pid": 0,
   "tid": 0
  },
  {
   "name": "Send",
   "cat": "comm",
   "ph": "X",
   "ts": 1000,
   "dur": 100.00000000000004,
   "pid": 0,
   "tid": 1
  },
  {
   "name": "barrier",
   "cat": "collective",
   "ph": "X",
   "ts": 2000,
   "dur": 500,
   "pid": 0,
   "tid": 1
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := b.String(); got != golden {
		t.Fatalf("Chrome JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// The golden bytes must also round-trip as valid JSON with the four
	// categories the instrumented stack emits.
	var parsed struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(golden), &parsed); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		cats[e.Cat] = true
	}
	for _, want := range []string{"io", "comm", "collective", "dstream"} {
		if !cats[want] {
			t.Fatalf("category %q missing from golden events", want)
		}
	}
}
