package dstream

import (
	"errors"
	"fmt"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// The Figure 2 order contract lives in two places — the assembler for
// insert → write → close, the record view for read → extract* → close — and
// every end embeds one of them. These are the method sets the contract is
// stated in; OStream and OChannel are figure2Out, IStream and IChannel
// figure2In.
type figure2Out interface {
	InsertFunc(fill func(local int, e *Encoder)) error
	Write() error
	Close() error
	Pending() int
	Records() int
}

type figure2In interface {
	Read() error
	ExtractFunc(take func(local int, d *Decoder)) error
	Arrays() int
	Extracted() int
	Close() error
}

const figure2Elems = 6

// figure2Ends attaches a row's two programs to each kind of end: a file on a
// one-node machine (the output program first, then the input program on what
// it stored), and a channel from rank 0 to rank 1 (both at once). in may be
// nil; out always runs, and the harness closes what the programs leave open.
var figure2Ends = []struct {
	name string
	// pastEnd is what a Read past the last record returns: an order error on
	// a file, whose reader can ask More first; the end of the stream on a
	// channel, whose consumer cannot know.
	pastEnd error
	run     func(t *testing.T, out func(figure2Out) error, in func(figure2In) error, inOpts ...Option)
}{
	{"file", ErrOrder, func(t *testing.T, out func(figure2Out) error, in func(figure2In) error, inOpts ...Option) {
		run(t, 1, pfs.NewMemFS(vtime.Challenge()), func(n *machine.Node) error {
			d, err := distr.New(figure2Elems, 1, distr.Block, 0)
			if err != nil {
				return err
			}
			o, err := Open(n, d, "f")
			if err != nil {
				return err
			}
			err = out(o)
			o.Close()
			if err != nil || in == nil {
				return err
			}
			i, err := OpenInput(n, d, "f", inOpts...)
			if err != nil {
				return err
			}
			defer i.Close()
			return in(i)
		})
	}},
	{"channel", ErrEOS, func(t *testing.T, out func(figure2Out) error, in func(figure2In) error, inOpts ...Option) {
		chanRun(t, 2, nil, func(n *machine.Node) error {
			d, err := distr.New(figure2Elems, 1, distr.Block, 0)
			if err != nil {
				return err
			}
			if n.Rank() == 0 {
				o, err := OpenChannel(n, d, d, "f")
				if err != nil {
					return err
				}
				defer o.Close()
				return out(o)
			}
			if in == nil {
				return nil
			}
			i, err := OpenChannelInput(n, d, d, "f", inOpts...)
			if err != nil {
				return err
			}
			// An end a row has failed does not drain; any other Close here
			// finds the producer's EOF, which every out that has an in sends.
			defer i.Close()
			return in(i)
		})
	}},
}

func figure2Value(rec, arr, local int) int64 { return int64(100*rec + 10*arr + local) }

// figure2Produce is the output program of the rows that are about the input
// side: records of arrays inserts each, then close.
func figure2Produce(records, arrays int) func(figure2Out) error {
	return func(o figure2Out) error {
		for rec := 0; rec < records; rec++ {
			for a := 0; a < arrays; a++ {
				if err := o.InsertFunc(func(l int, e *Encoder) { e.Int64(figure2Value(rec, a, l)) }); err != nil {
					return err
				}
			}
			if err := o.Write(); err != nil {
				return err
			}
		}
		return o.Close()
	}
}

func figure2Skip(l int, d *Decoder) { d.Int64() }

func wantErr(what string, got, target error) error {
	if !errors.Is(got, target) {
		return fmt.Errorf("%s: %v, want %v", what, got, target)
	}
	return nil
}

// TestFigure2Table drives the order contract — every illegal order Figure 2
// rules out, and the legal ones next to them — against the file ends and the
// channel ends through one helper, so the shared assembler and record view
// are tested once for both attachments.
func TestFigure2Table(t *testing.T) {
	insert := func(o figure2Out) error { return o.InsertFunc(func(int, *Encoder) {}) }
	rows := []struct {
		name   string
		out    func(o figure2Out) error
		in     func(i figure2In, pastEnd error) error
		inOpts []Option
	}{
		{name: "write with nothing inserted, and the error sticks",
			out: func(o figure2Out) error {
				werr := o.Write()
				if err := wantErr("Write with no inserts", werr, ErrOrder); err != nil {
					return err
				}
				if err := insert(o); err != werr {
					return fmt.Errorf("insert on a failed stream: %v, want the error that failed it", err)
				}
				if o.Pending() != 0 || o.Records() != 0 {
					return fmt.Errorf("failed stream holds %d inserts, wrote %d records", o.Pending(), o.Records())
				}
				return nil
			}},
		{name: "extract before read, and the error sticks",
			out: figure2Produce(1, 1),
			in: func(i figure2In, _ error) error {
				xerr := i.ExtractFunc(figure2Skip)
				if err := wantErr("extract before read", xerr, ErrOrder); err != nil {
					return err
				}
				if i.Arrays() != 0 {
					return fmt.Errorf("Arrays() = %d before the first read", i.Arrays())
				}
				if err := i.Read(); err != xerr {
					return fmt.Errorf("read on a failed stream: %v, want the error that failed it", err)
				}
				return nil
			}},
		{name: "one extract too many",
			out: figure2Produce(1, 2),
			in: func(i figure2In, _ error) error {
				if err := i.Read(); err != nil {
					return err
				}
				for a := 0; a < 2; a++ {
					if i.Arrays() != 2 || i.Extracted() != a {
						return fmt.Errorf("Arrays, Extracted = %d, %d before extract #%d of 2", i.Arrays(), i.Extracted(), a+1)
					}
					if err := i.ExtractFunc(figure2Skip); err != nil {
						return err
					}
				}
				return wantErr("third extract of a 2-array record", i.ExtractFunc(figure2Skip), ErrOrder)
			}},
		{name: "read past the last record",
			out: figure2Produce(1, 1),
			in: func(i figure2In, pastEnd error) error {
				if err := i.Read(); err != nil {
					return err
				}
				if m, ok := i.(interface{ More() bool }); ok && m.More() {
					return errors.New("More() true after the last record")
				}
				return wantErr("read past the last record", i.Read(), pastEnd)
			}},
		{name: "read with no record written",
			out: func(o figure2Out) error { return o.Close() },
			in: func(i figure2In, pastEnd error) error {
				return wantErr("read of an empty stream", i.Read(), pastEnd)
			}},
		{name: "close with unwritten inserts",
			out: func(o figure2Out) error {
				if err := insert(o); err != nil {
					return err
				}
				if o.Pending() != 1 {
					return fmt.Errorf("Pending() = %d after one insert", o.Pending())
				}
				if err := wantErr("close with a pending insert", o.Close(), ErrOrder); err != nil {
					return err
				}
				if err := o.Close(); err != nil {
					return fmt.Errorf("second close: %v", err)
				}
				return nil
			}},
		{name: "use after close",
			out: func(o figure2Out) error {
				if err := insert(o); err != nil {
					return err
				}
				if err := o.Write(); err != nil {
					return err
				}
				if o.Pending() != 0 || o.Records() != 1 {
					return fmt.Errorf("after one write: %d inserts pending, %d records", o.Pending(), o.Records())
				}
				for n := 1; n <= 2; n++ {
					if err := o.Close(); err != nil {
						return fmt.Errorf("close #%d: %v", n, err)
					}
				}
				if err := wantErr("insert after close", insert(o), ErrClosed); err != nil {
					return err
				}
				return wantErr("write after close", o.Write(), ErrClosed)
			},
			in: func(i figure2In, _ error) error {
				for n := 1; n <= 2; n++ {
					if err := i.Close(); err != nil {
						return fmt.Errorf("close #%d: %v", n, err)
					}
				}
				if err := wantErr("read after close", i.Read(), ErrClosed); err != nil {
					return err
				}
				return wantErr("extract after close", i.ExtractFunc(figure2Skip), ErrClosed)
			}},
		{name: "Strict: read with arrays unextracted",
			out:    figure2Produce(2, 2),
			inOpts: []Option{WithStrict()},
			in: func(i figure2In, _ error) error {
				if err := i.Read(); err != nil {
					return err
				}
				if err := i.ExtractFunc(figure2Skip); err != nil {
					return err
				}
				if err := wantErr("strict read, one of two arrays extracted", i.Read(), ErrOrder); err != nil {
					return err
				}
				// The end is now failed; its Close must not wait on anything.
				i.Close()
				return nil
			}},
		{name: "Strict: skip with arrays unextracted",
			out:    figure2Produce(2, 2),
			inOpts: []Option{WithStrict()},
			in: func(i figure2In, _ error) error {
				s, ok := i.(interface{ Skip() error })
				if !ok {
					return nil // a channel has no skip
				}
				if err := i.Read(); err != nil {
					return err
				}
				return wantErr("strict skip, no array extracted", s.Skip(), ErrOrder)
			}},
		{name: "Strict: close with arrays unextracted",
			out:    figure2Produce(2, 2),
			inOpts: []Option{WithStrict()},
			in: func(i figure2In, _ error) error {
				if err := i.Read(); err != nil {
					return err
				}
				return wantErr("strict close, no array extracted", i.Close(), ErrOrder)
			}},
		{name: "Strict: every array extracted",
			out:    figure2Produce(2, 2),
			inOpts: []Option{WithStrict()},
			in: func(i figure2In, _ error) error {
				for rec := 0; rec < 2; rec++ {
					if err := i.Read(); err != nil {
						return err
					}
					for a := 0; a < 2; a++ {
						var bad error
						err := i.ExtractFunc(func(l int, d *Decoder) {
							if got := d.Int64(); got != figure2Value(rec, a, l) && bad == nil {
								bad = fmt.Errorf("record %d array %d element %d: got %d", rec, a, l, got)
							}
						})
						if err != nil || bad != nil {
							return errors.Join(err, bad)
						}
					}
				}
				return i.Close()
			}},
	}
	for _, row := range rows {
		for _, end := range figure2Ends {
			t.Run(row.name+"/"+end.name, func(t *testing.T) {
				var in func(figure2In) error
				if row.in != nil {
					in = func(i figure2In) error { return row.in(i, end.pastEnd) }
				}
				end.run(t, row.out, in, row.inOpts...)
			})
		}
	}
}

// TestFigure2TableDecodersOneAllocation: the view hands its source all of a
// record's decoders as one slice, so what a consumer's first Read allocates
// does not grow with the number of elements it holds. (The file end's first
// Read is pinned through the dstream_*_read cells of the allocation gate.)
func TestFigure2TableDecodersOneAllocation(t *testing.T) {
	const runs = 20
	firstRead := func(nElems int) (avg float64) {
		chanRun(t, 1, nil, func(n *machine.Node) error {
			d, err := distr.New(nElems, 1, distr.Block, 0)
			if err != nil {
				return err
			}
			// runs+1 loopback channels (AllocsPerRun warms up once), each
			// with one record already in the consumer's mailbox.
			ends := make([]*IChannel, runs+1)
			for c := range ends {
				name := fmt.Sprintf("c%d", c)
				if ends[c], err = OpenChannelInput(n, d, d, name); err != nil {
					return err
				}
				defer ends[c].Close()
				o, err := OpenChannel(n, d, d, name)
				if err != nil {
					return err
				}
				defer o.Close()
				if err := o.InsertFunc(func(l int, e *Encoder) { e.Int64(int64(l)) }); err != nil {
					return err
				}
				if err := o.Write(); err != nil {
					return err
				}
			}
			next := 0
			var rerr error
			avg = testing.AllocsPerRun(runs, func() {
				rerr = errors.Join(rerr, ends[next].Read())
				next++
			})
			return rerr
		})
		return avg
	}
	small, large := firstRead(8), firstRead(2048)
	if large > small+2 {
		t.Fatalf("first Read allocates %.1f times for 8 elements, %.1f for 2048: the decoders are not one allocation", small, large)
	}
}
