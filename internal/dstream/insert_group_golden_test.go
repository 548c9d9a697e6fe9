package dstream

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// The golden images pin the stored file bytes and the channel frame bytes to
// what the commit before the arena change produced for the same program
// (the per-element-buffer interleave group of PR 12's HEAD). The channel
// frames are taken where they are the contract — on the wire, by a transport
// tap — so the entries pin what a consumer is sent, not a field of the
// producer. The entries of the uneven 3→2 channels came later, from the
// commit before a channel's first insert was encoded straight into its
// frames. The images must never be regenerated to make a failing change
// pass:
//
//	go test ./internal/dstream -run 'TestGolden' -update-golden
//
// is for a deliberate format change only.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/insert_group.golden from this build's output")

const (
	goldenFile  = "testdata/insert_group.golden"
	goldenElems = 11
	goldenProcs = 4
	goldenRecs  = 2
)

var goldenShapes = []int{1, 2, 5} // inserts per group

// goldenPayload is what insert i of record rec encodes for global element
// g: a few bytes, none at all for one element in four, and once 300 bytes,
// so that single element takes its arena across pool classes by itself.
func goldenPayload(rec, i, g int) []byte {
	n := (g*5 + i*3 + rec*7) % 19
	switch {
	case (g+i+rec)%4 == 0:
		n = 0
	case g == 3 && i == 0 && rec == 1:
		n = 300
	}
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(g*31 + i*17 + rec*5 + j)
	}
	return p
}

func goldenDist(kind string, nprocs int) (*distr.Distribution, error) {
	switch kind {
	case "block":
		return distr.New(goldenElems, nprocs, distr.Block, 0)
	case "cyclic":
		return distr.New(goldenElems, nprocs, distr.Cyclic, 0)
	}
	owners := make([]int, goldenElems)
	for g := range owners {
		owners[g] = (g*g + 1) % nprocs
	}
	return distr.NewExplicit(owners, nprocs)
}

// goldenImage writes goldenRecs records, each a group of shape inserts, and
// returns the stored file.
func goldenImage(t *testing.T, kind string, shape int, strat Strategy) []byte {
	t.Helper()
	fs := pfs.NewFileSystem(vtime.Paragon(), pfs.StripedMemFactory(3, 256))
	run(t, goldenProcs, fs, func(n *machine.Node) error {
		d, err := goldenDist(kind, goldenProcs)
		if err != nil {
			return err
		}
		s, err := Open(n, d, "g", WithStrategy(strat))
		if err != nil {
			return err
		}
		defer s.Close()
		for rec := 0; rec < goldenRecs; rec++ {
			for i := 0; i < shape; i++ {
				err := s.InsertFunc(func(l int, e *Encoder) {
					e.Raw(goldenPayload(rec, i, d.GlobalIndex(n.Rank(), l)))
				})
				if err != nil {
					return err
				}
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	img, err := fs.Image("g")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// goldenChannel is a channel the golden frames are taken on: prods producers
// in layout wd feeding cons consumers in layout rd, on a machine of
// prods+cons ranks, so that no rank is both.
type goldenChannel struct {
	key         string // the first field of its entries' keys
	prods, cons int
	shapes      []int
	wd, rd      func() (*distr.Distribution, error)
}

// goldenOwners is an explicit layout of the golden collection over nprocs
// ranks: owners(g) owns element g.
func goldenOwners(nprocs int, owners func(g int) int) func() (*distr.Distribution, error) {
	return func() (*distr.Distribution, error) {
		tbl := make([]int, goldenElems)
		for g := range tbl {
			tbl[g] = owners(g)
		}
		return distr.NewExplicit(tbl, nprocs)
	}
}

// goldenChannels: a 2→2 channel from BLOCK to CYCLIC, so every frame is a
// redistribution; and two uneven 3→2 channels whose producers own elements
// by an explicit table under which producer 0 owns none. Under the first,
// both consumers own elements, so producer 0 sends nothing at all; under the
// second, consumer 0 owns none, so producer 0 sends it the empty pacing
// frame every record while the other two send all their data to consumer 1.
var goldenChannels = []goldenChannel{
	{key: "chan", prods: 2, cons: 2, shapes: goldenShapes,
		wd: func() (*distr.Distribution, error) { return goldenDist("block", 2) },
		rd: func() (*distr.Distribution, error) { return goldenDist("cyclic", 2) }},
	{key: "chan3x2/explicit", prods: 3, cons: 2, shapes: []int{1, 2},
		wd: func() (*distr.Distribution, error) { return goldenDist("explicit", 3) },
		rd: goldenOwners(2, func(g int) int { return g / 2 % 2 })},
	{key: "chan3x2/idle", prods: 3, cons: 2, shapes: []int{1, 2},
		wd: func() (*distr.Distribution, error) { return goldenDist("explicit", 3) },
		rd: goldenOwners(2, func(int) int { return 1 })},
}

// goldenFrames pushes the same records through channel ch and returns every
// data frame the producers put on the wire — a copy taken as it is handed to
// the transport, whatever the producer does with its buffers before or after —
// keyed by producer, record and destination.
func goldenFrames(t *testing.T, ch goldenChannel, shape int) map[string][]byte {
	t.Helper()
	prods, cons := ch.prods, ch.cons
	recs := map[[2]int]int{} // (from, to) → data frames seen
	frames := map[string][]byte{}
	tap := &sendTap{each: func(m comm.Message) error {
		if m.From < prods && m.To >= prods && isDataFrame(m) {
			pair := [2]int{m.From, m.To}
			key := fmt.Sprintf("%s/%d/p%d/r%d/c%d", ch.key, shape, m.From, recs[pair], m.To-prods)
			recs[pair]++
			frames[key] = append([]byte(nil), m.Data...)
		}
		return nil
	}}
	tappedRun(t, prods+cons, tap, func(n *machine.Node) error {
		wd, err := ch.wd()
		if err != nil {
			return err
		}
		rd, err := ch.rd()
		if err != nil {
			return err
		}
		if n.Rank() >= prods {
			r, err := OpenChannelInput(n, rd, wd, "g")
			if err != nil {
				return err
			}
			for rec := 0; rec < goldenRecs; rec++ {
				if err := r.Read(); err != nil {
					return err
				}
			}
			return r.Close()
		}
		s, err := OpenChannel(n, wd, rd, "g")
		if err != nil {
			return err
		}
		for rec := 0; rec < goldenRecs; rec++ {
			for i := 0; i < shape; i++ {
				err := s.InsertFunc(func(l int, e *Encoder) {
					e.Raw(goldenPayload(rec, i, wd.GlobalIndex(n.Rank(), l)))
				})
				if err != nil {
					return err
				}
			}
			if err := s.Write(); err != nil {
				return err
			}
		}
		return s.Close()
	})
	return frames
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v — the images come from the commit before the arena change, see the top of this file", err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %s: %v", goldenFile, key, err)
		}
		out[key] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenInsertGroupBytes: for groups of 1, 2 and 5 inserts, under BLOCK,
// CYCLIC and an explicit owner table, all three write strategies store the
// file the previous commit stored, and the channel sends the frames it sent.
func TestGoldenInsertGroupBytes(t *testing.T) {
	got := map[string][]byte{}
	for _, kind := range []string{"block", "cyclic", "explicit"} {
		for _, shape := range goldenShapes {
			key := fmt.Sprintf("file/%s/%d", kind, shape)
			for _, strat := range []Strategy{StrategyFunnel, StrategyParallel, StrategyTwoPhase} {
				img := goldenImage(t, kind, shape, strat)
				if prev, ok := got[key]; ok && !bytes.Equal(prev, img) {
					t.Fatalf("%s: %v stores a different file than funnel", key, strat)
				}
				got[key] = img
			}
		}
	}
	for _, ch := range goldenChannels {
		for _, shape := range ch.shapes {
			for k, v := range goldenFrames(t, ch, shape) {
				got[k] = v
			}
		}
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, hex.EncodeToString(got[k]))
		}
		if err := os.WriteFile(goldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", goldenFile, len(keys))
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, this build produced %d", goldenFile, len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: not produced", k)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s: %d bytes differ from the golden %d", k, len(g), len(w))
		}
	}
}
