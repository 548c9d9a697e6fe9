package collective

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/bufpool"
)

// TestRooted: the root alone acts; every rank gets its payload in a pooled
// frame, the root included, or fails with its message as a RootError — at
// every size, on both shapes, from any root. Every rank's frames go back: the
// pool's outstanding count ends where it started.
func TestRooted(t *testing.T) {
	for _, n := range []int{1, 2, 4, 17} {
		for _, fanout := range []int{0, treeFanout} {
			for _, root := range []int{0, n - 1}[:min(n, 2)] {
				t.Run(fmt.Sprintf("n=%d/fanout=%d/root=%d", n, fanout, root), func(t *testing.T) {
					before := bufpool.Stats().Outstanding
					defer func() {
						if got := bufpool.Stats().Outstanding - before; got != 0 {
							t.Errorf("%d pooled buffers still out after every rank gave its frames back", got)
						}
					}()
					spmdShape(t, n, fanout, func(c *Comm) error {
						acted := false
						act := func(p []byte, err error) func() ([]byte, error) {
							return func() ([]byte, error) { acted = true; return p, err }
						}
						// A payload, an empty one (the verdict frame), a failure.
						for _, want := range []string{"the answer", ""} {
							acted = false
							got, frame, err := c.Rooted(root, act([]byte(want), nil))
							if err != nil || string(got) != want {
								return fmt.Errorf("rank %d: got %q, %v; want %q", c.Rank(), got, err, want)
							}
							if acted != (c.Rank() == root) {
								return fmt.Errorf("rank %d: acted = %v with root %d", c.Rank(), acted, root)
							}
							if frame == nil {
								return fmt.Errorf("rank %d: no frame", c.Rank())
							}
							bufpool.Put(frame)
						}
						got, frame, err := c.Rooted(root, act([]byte("dropped"), errors.New("disk on fire")))
						var re RootError
						if !errors.As(err, &re) || re != "disk on fire" || got != nil || frame != nil {
							return fmt.Errorf("rank %d: got %q, %v; want root's failure and nothing else", c.Rank(), got, err)
						}
						// The group is still aligned.
						return c.Barrier()
					})
				})
			}
		}
	}
}

// TestRootedFrames: on the wire a rooted result is one status byte and the
// payload, and a frame that is not — empty, or a status that is neither — is
// refused by every receiver as a transport-class error, not as root's word.
func TestRootedFrames(t *testing.T) {
	for _, n := range []int{2, 17} {
		spmd(t, n, func(c *Comm) error {
			p, _, err := c.bcastFrame(0, []byte{1, 'o', 'k'})
			if err != nil || string(p) != "\x01ok" {
				return fmt.Errorf("setup: %q, %v", p, err)
			}
			for _, bad := range [][]byte{nil, {2, 'x'}} {
				var err error
				if c.Rank() == 0 {
					_, _, err = c.bcastFrame(0, bad) // what a broken root would send
				} else {
					_, _, err = c.Rooted(0, func() ([]byte, error) { return nil, nil })
					var re RootError
					if err == nil || errors.As(err, &re) || !strings.Contains(err.Error(), "malformed status frame") {
						return fmt.Errorf("rank %d accepted status frame %v: %v", c.Rank(), bad, err)
					}
					err = nil
				}
				if err != nil {
					return err
				}
			}
			return c.Barrier()
		})
	}
}
