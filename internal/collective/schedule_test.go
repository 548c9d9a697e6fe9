package collective

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"pcxxstreams/internal/bufpool"
)

// The schedule golden pins what every collective puts on the wire at the
// paper's machine sizes: per rank and in order, each send and receive as
// (peer, op kind, sub-index, bytes), and the rank's exit clock to the bit. It
// was generated by the commit before the flat bodies were folded into the
// tree, and must never be regenerated to make a failing change pass:
//
//	go test ./internal/collective -run TestCollectiveScheduleGolden -update-schedule
//
// is for a deliberate change of schedule only.
var updateSchedule = flag.Bool("update-schedule", false, "rewrite testdata/schedule.golden from this build's schedule")

const scheduleFile = "testdata/schedule.golden"

// schedulePart is rank r's contribution to the gathers: a few bytes, none at
// all on some ranks.
func schedulePart(r int) []byte { return bytes.Repeat([]byte{byte(r + 1)}, (r*5)%7) }

var scheduleOps = []struct {
	name     string
	exitOnly bool // pin the exit clocks alone, not the message order
	run      func(c *Comm) error
}{
	{"barrier", false, func(c *Comm) error { return c.Barrier() }},
	{"bcast", false, func(c *Comm) error { return scheduleBcast(c, 0) }},
	{"gather", false, func(c *Comm) error {
		parts, err := c.Gather(0, schedulePart(c.Rank()))
		putGathered(parts, 0)
		return err
	}},
	{"allgather", false, func(c *Comm) error {
		_, frame, err := c.Allgather(schedulePart(c.Rank()))
		bufpool.Put(frame)
		return err
	}},
	{"reduce", false, func(c *Comm) error {
		_, err := c.Reduce(0, float64(c.Rank())+0.5, OpSum)
		return err
	}},
	{"allreduce", false, func(c *Comm) error {
		_, err := c.Allreduce(float64(c.Rank())*1.25, OpMax)
		return err
	}},
	{"rooted", false, func(c *Comm) error {
		_, frame, err := c.Rooted(0, func() ([]byte, error) { return bytes.Repeat([]byte{7}, 40), nil })
		bufpool.Put(frame)
		return err
	}},
	{"alltoallv", false, func(c *Comm) error {
		bufs := make([][]byte, c.Size())
		for j := range bufs {
			bufs[j] = bytes.Repeat([]byte{byte(j)}, (c.Rank()+2*j)%5*3)
		}
		got, err := c.Alltoallv(bufs)
		putAll(got)
		return err
	}},
	{"bcast-last-root", true, func(c *Comm) error { return scheduleBcast(c, c.Size()-1) }},
}

func scheduleBcast(c *Comm, root int) error {
	var data []byte
	if c.Rank() == root {
		data = bytes.Repeat([]byte{3}, 100)
	}
	_, frame, err := c.bcastFrame(root, data)
	bufpool.Put(frame)
	return err
}

// scheduleOf runs op on n ranks whose clocks enter skewed and returns one line
// per rank: its exit clock as float bits, then its messages in order.
func scheduleOf(t *testing.T, n int, op func(c *Comm) error, exitOnly bool) []string {
	t.Helper()
	log := newMsgLog(n)
	times := spmdOver(t, n, log, func(c *Comm) error {
		c.Endpoint().Clock().Advance(float64((c.Rank()*7)%n) * 50e-6)
		return op(c)
	})
	lines := make([]string, n)
	for r := range lines {
		lines[r] = fmt.Sprintf("r%d exit %016x", r, math.Float64bits(times[r]))
		if exitOnly || len(log.logs[r]) == 0 {
			continue
		}
		events := make([]string, len(log.logs[r]))
		for i, e := range log.logs[r] {
			events[i] = e.String()
		}
		lines[r] += ": " + strings.Join(events, ", ")
	}
	return lines
}

// TestCollectiveScheduleGolden: Barrier, Bcast, Gather, Allgather, Reduce,
// Allreduce, Rooted and Alltoallv at root 0 on 1, 2, 4, 9 and 16 ranks send
// and receive the messages they did before the fold, in the same order and
// sizes, and leave every rank at the same instant; Bcast from the last rank
// leaves every rank where it did.
func TestCollectiveScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, op := range scheduleOps {
		for _, n := range []int{1, 2, 4, 9, 16} {
			fmt.Fprintf(&b, "== %s n=%d\n", op.name, n)
			for _, l := range scheduleOf(t, n, op.run, op.exitOnly) {
				b.WriteString(l + "\n")
			}
		}
	}
	got := b.String()
	if *updateSchedule {
		if err := os.WriteFile(scheduleFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", scheduleFile)
		return
	}
	want, err := os.ReadFile(scheduleFile)
	if err != nil {
		t.Fatalf("%v — the golden comes from the commit before the fold, see the top of this file", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "==") {
			section = w
		}
		if g != w {
			t.Fatalf("%s line %d (%s):\n got %s\nwant %s", scheduleFile, i+1, section, g, w)
		}
	}
}
