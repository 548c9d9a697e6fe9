package dstream

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcxxstreams/internal/comm"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// TestRootFailureFailsEveryRank: where node 0 acts for the group — checking
// the file header when an input or an appending output stream opens, reading
// a record's front matter — its failure is every rank's, in its words
// (collective.Rooted), so no rank is left waiting at the next rendezvous.
func TestRootFailureFailsEveryRank(t *testing.T) {
	const nprocs = 3
	d := mustDist(t, 9, nprocs, distr.Block, 0)
	notAStream := func(t *testing.T, fs *pfs.FileSystem) {
		run(t, 1, fs, func(n *machine.Node) error {
			f, err := n.Open("f", true)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.WriteAt([]byte("this is no d/stream file at all"), 0)
		})
	}
	faultAfter := func(k int) func(*testing.T, *pfs.FileSystem) {
		return func(t *testing.T, fs *pfs.FileSystem) {
			run(t, nprocs, fs, func(n *machine.Node) error { return writeTable(n, d, "f") })
			if err := fs.InjectFault("f", k); err != nil {
				t.Fatal(err)
			}
		}
	}
	readFrontMatter := func(n *machine.Node) error {
		s, err := OpenInput(n, d, "f")
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		defer s.Close()
		err = s.Read()
		if !errors.Is(err, ErrIO) || isCommErr(err) {
			return fmt.Errorf("read failed with %v, want node 0's verdict as ErrIO", err)
		}
		return err
	}
	for _, c := range []struct {
		name  string
		setup func(*testing.T, *pfs.FileSystem)
		op    func(*machine.Node) error
		want  string
	}{
		{"open input", notAStream, func(n *machine.Node) error {
			_, err := OpenInput(n, d, "f")
			return err
		}, "not a d/stream file"},
		{"open output to append", notAStream, func(n *machine.Node) error {
			_, err := Open(n, d, "f", WithAppend())
			return err
		}, "not a d/stream file"},
		// One backend call more succeeds: the file header. The record
		// header's read is node 0's to fail.
		{"read front matter", faultAfter(1), readFrontMatter,
			`node 0 read failed: pfs: read "f" at 16: ` + pfs.ErrInjected.Error()},
		// Two succeed: the file header and the record header. The one read
		// of descriptor and size table, right behind it, fails.
		{"read descriptor and size table", faultAfter(2), readFrontMatter,
			`node 0 read failed: pfs: read "f" at 72: ` + pfs.ErrInjected.Error()},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := pfs.NewMemFS(vtime.Challenge())
			c.setup(t, fs)
			errs := make([]error, nprocs)
			run(t, nprocs, fs, func(n *machine.Node) error {
				errs[n.Rank()] = c.op(n)
				return nil
			})
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("rank %d: err = %v, want node 0's %q", r, err, c.want)
				}
				if err.Error() != errs[0].Error() {
					t.Fatalf("rank %d failed with %q, rank 0 with %q", r, err, errs[0])
				}
			}
		})
	}
}

// cutTransport fails every Send and Recv once cut is set.
type cutTransport struct {
	comm.Transport
	cut atomic.Bool
}

func (c *cutTransport) Send(m comm.Message) error {
	if c.cut.Load() {
		return errors.New("wire cut")
	}
	return c.Transport.Send(m)
}

func (c *cutTransport) Recv(to, from int, tag uint64) (comm.Message, error) {
	if c.cut.Load() {
		return comm.Message{}, errors.New("wire cut")
	}
	return c.Transport.Recv(to, from, tag)
}

// TestFrontMatterTransportFailureIsCommErr: a front-matter broadcast that
// fails in transport — which ranks may see differently — carries the
// commError tag the prefetch pipeline must not abandon on; node 0's own
// verdict (TestRootFailureFailsEveryRank) does not.
func TestFrontMatterTransportFailureIsCommErr(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	d := mustDist(t, 8, 2, distr.Block, 0)
	run(t, 2, fs, func(n *machine.Node) error { return writeTable(n, d, "f") })
	cut := &cutTransport{}
	var errs [2]error
	// The wire is cut once both ranks are out of the barrier: a rank that
	// leaves it first must not cut the release its peer is still receiving.
	var past sync.WaitGroup
	past.Add(2)
	_, err := machine.Run(machine.Config{NProcs: 2, Profile: vtime.Challenge(), FS: fs,
		WrapTransport: func(tr comm.Transport) comm.Transport { cut.Transport = tr; return cut },
	}, func(n *machine.Node) error {
		s, err := OpenInput(n, d, "f")
		if err != nil {
			return err
		}
		defer s.Close()
		if err := n.Comm().Barrier(); err != nil {
			return err
		}
		past.Done()
		past.Wait()
		cut.cut.Store(true)
		_, errs[n.Rank()] = s.frontMatter(s.cursor, false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "wire cut") || !isCommErr(err) {
			t.Fatalf("rank %d: frontMatter = %v (commError: %v), want the cut wire, tagged", r, err, isCommErr(err))
		}
	}
}
