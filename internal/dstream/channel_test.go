package dstream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
)

// TestChannelInsertElemsLength: InsertElems takes exactly the producer's
// share. (The order errors a channel shares with the file streams — and
// Strict, and use after close — are rows of TestFigure2Table.)
func TestChannelInsertElemsLength(t *testing.T) {
	run(t, 2, nil, func(node *machine.Node) error {
		if node.Rank() != 0 {
			return nil
		}
		d, _ := distr.New(8, 1, distr.Block, 0)
		// No consumer attaches: the failed insert never reaches the wire.
		s, err := OpenChannel(node, d, d, "solo")
		if err != nil {
			return err
		}
		if err := InsertElems[plist](s, make([]plist, 1)); !errors.Is(err, ErrNotAligned) {
			return fmt.Errorf("short InsertElems = %v, want ErrNotAligned", err)
		}
		return nil
	})
}

// TestChannelOpenErrors: group membership and layout agreement are checked
// at open, before any communication.
func TestChannelOpenErrors(t *testing.T) {
	run(t, 2, nil, func(node *machine.Node) error {
		wd, _ := distr.New(8, 1, distr.Block, 0)
		rd, _ := distr.New(8, 1, distr.Block, 0)
		rdBad, _ := distr.New(9, 1, distr.Block, 0)
		big, _ := distr.New(8, 3, distr.Block, 0)
		if _, err := OpenChannel(node, wd, rdBad, "x"); err == nil {
			return fmt.Errorf("mismatched element counts accepted")
		}
		if _, err := OpenChannel(node, big, rd, "x"); err == nil {
			return fmt.Errorf("oversized group accepted")
		}
		if node.Rank() == 1 {
			if _, err := OpenChannel(node, wd, rd, "x"); err == nil ||
				!strings.Contains(err.Error(), "outside the channel's producer group") {
				return fmt.Errorf("rank outside producer group: err = %v", err)
			}
		}
		if node.Rank() == 0 {
			if _, err := OpenChannelInput(node, rd, wd, "x"); err == nil ||
				!strings.Contains(err.Error(), "outside the channel's consumer group") {
				return fmt.Errorf("rank outside consumer group: err = %v", err)
			}
		}
		return nil
	})
}
