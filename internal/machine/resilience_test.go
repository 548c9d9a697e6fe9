package machine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcxxstreams/internal/comm"
)

// countingTransport proves WrapTransport wiring: it counts the messages the
// endpoints push through it.
type countingTransport struct {
	comm.Transport
	sends atomic.Int64
}

func (c *countingTransport) Send(m comm.Message) error {
	c.sends.Add(1)
	return c.Transport.Send(m)
}

func TestWrapTransportSeesTraffic(t *testing.T) {
	var ct *countingTransport
	c := cfg(3)
	c.WrapTransport = func(tr comm.Transport) comm.Transport {
		ct = &countingTransport{Transport: tr}
		return ct
	}
	_, err := Run(c, func(n *Node) error {
		ep := n.Comm().Endpoint()
		if n.Rank() == 0 {
			return ep.Send(1, 5, []byte("through the wrapper"))
		}
		if n.Rank() == 1 {
			_, err := ep.Recv(0, 5)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct == nil {
		t.Fatal("WrapTransport never called")
	}
	if ct.sends.Load() == 0 {
		t.Fatal("wrapped transport saw no sends")
	}
}

// TestRecvDeadlineConvertsHangToError: a rank waiting for a message nobody
// sends is the canonical distributed hang; with a receive deadline configured
// at the machine level, Run returns a clean error instead of blocking forever.
// In process the deadline is final: the first expiry is the verdict, with
// the retry budget left unspent.
func TestRecvDeadlineConvertsHangToError(t *testing.T) {
	c := cfg(2)
	c.RecvDeadline = 20 * time.Millisecond
	c.Retry = &comm.RetryPolicy{MaxAttempts: 2, Backoff: 1e-6}
	done := make(chan error, 1)
	go func() {
		_, err := Run(c, func(n *Node) error {
			if n.Rank() == 1 {
				_, err := n.Comm().Endpoint().Recv(0, 9) // no one sends
				return err
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("orphaned receive completed")
		}
		if !errors.Is(err, comm.ErrRecvTimeout) || comm.IsTransient(err) || strings.Contains(err.Error(), "retries exhausted") {
			t.Fatalf("error is not a final receive deadline, reached without a retry: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("machine run hung despite receive deadline")
	}
}

// TestRetryPolicyAppliedToEndpoints: the machine-level policy reaches every
// endpoint — with MaxAttempts 1 a single transient fault is terminal.
func TestRetryPolicyAppliedToEndpoints(t *testing.T) {
	c := cfg(2)
	c.RecvDeadline = 10 * time.Millisecond
	c.Retry = &comm.RetryPolicy{MaxAttempts: 1, Backoff: 1e-6}
	start := time.Now()
	_, err := Run(c, func(n *Node) error {
		if n.Rank() == 0 {
			_, err := n.Comm().Endpoint().Recv(1, 3)
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("orphaned receive completed")
	}
	// One attempt at a 10ms deadline: the run must fail fast, nowhere near
	// a multi-attempt backoff schedule.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("single-attempt policy took %v", elapsed)
	}
}
