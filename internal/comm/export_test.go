package comm

// StageState reports how much matching state rank's mailbox holds: streams
// with something staged, sequence cursors, remembered one-shot streams, and
// recycled pending lists. For the external tests that drive the mailbox
// through layers this package cannot import.
func (t *ChanTransport) StageState(rank int) (pending, next, once, free int) {
	mb := t.boxes[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.pending), len(mb.next), len(mb.once), len(mb.listFree)
}

// SendStreams reports how many streams the endpoint keeps a send sequence
// number for.
func (e *Endpoint) SendStreams() int { return len(e.seqs) }

// The stage's bounds, for the tests that must overrun them.
const (
	OnceWindow  = onceWindow
	MaxListFree = maxListFree
)
