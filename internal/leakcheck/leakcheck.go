// Package leakcheck ends a test binary with every pooled buffer back and
// every goroutine gone. A pool-heavy package's tests run under
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// and after the last test, Main waits for the goroutine count to fall back
// to where it started and for bufpool's Outstanding count to be back at its
// start, in every build. A failure prints the goroutines still running, or
// the buffers still owed: in a pooldebug build grouped by the stack that
// took them, in a plain build by their count alone. Either fails the
// binary. The package imports testing; only test files import it.
package leakcheck

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
)

// deadline bounds the wait for the last goroutines to exit and the last
// buffers to come back: a TCP writer releases its frame after the socket
// took it, an I/O rank its buffer after the reply is on the wire.
const deadline = 10 * time.Second

// Main runs the tests and then the two checks, also after a failed test,
// whose leaks may say why it failed; it does not return. A fuzzing run
// (-fuzz, and its workers) is left unchecked: its inputs never end.
func Main(m *testing.M) {
	goroutines := runtime.NumGoroutine()
	outstanding := bufpool.Stats().Outstanding
	code := m.Run()
	if !fuzzing() && !clean(os.Stderr, goroutines, outstanding, deadline) {
		code = 1
	}
	os.Exit(code)
}

// fuzzing reports whether the binary is a fuzzing coordinator or worker.
func fuzzing() bool {
	for _, name := range []string{"test.fuzz", "test.fuzzworker"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			return true
		}
	}
	return false
}

// clean waits up to wait for the goroutine count to be back at goroutines
// and for every buffer to be back, and reports to w what is still out if
// they do not.
func clean(w io.Writer, goroutines int, outstanding int64, wait time.Duration) bool {
	end := time.Now().Add(wait)
	for {
		owed := bufpool.Ledger() // always empty outside pooldebug
		extra := bufpool.Stats().Outstanding - outstanding
		g := runtime.NumGoroutine()
		if g <= goroutines && len(owed) == 0 && extra == 0 {
			return true
		}
		if time.Now().Before(end) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if g > goroutines {
			fmt.Fprintf(w, "leakcheck: %d goroutines still running after the tests, %d before them:\n", g, goroutines)
			pprof.Lookup("goroutine").WriteTo(w, 1) //nolint:errcheck
		}
		if len(owed) > 0 {
			n := 0
			for _, s := range owed {
				n += s.Buffers
			}
			fmt.Fprintf(w, "leakcheck: %d pooled buffers taken and never returned, by the stack that took them:\n", n)
			for _, s := range owed {
				fmt.Fprintf(w, "%d buffers at\n%s", s.Buffers, trace(s.Stack))
			}
		} else if extra != 0 && bufpool.Debug {
			fmt.Fprintf(w, "leakcheck: bufpool Outstanding is %+d from its start and the ledger names no buffer: a Put of a buffer Get never gave out?\n", extra)
		} else if extra != 0 {
			fmt.Fprintf(w, "leakcheck: bufpool Outstanding is %+d from its start; rerun with -tags pooldebug to name the stacks\n", extra)
		}
		return false
	}
}

// trace formats a stack as a panic does, one function and its line a frame.
func trace(stack []uintptr) string {
	var b strings.Builder
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}

// WaitOutstanding waits up to the deadline for bufpool's Outstanding to
// read want — a balance some test checks in the middle of its run, where
// a transport or an I/O rank releases a buffer a moment after the call
// that used it returned — and fails t if it does not.
func WaitOutstanding(t testing.TB, want int64, what string) {
	t.Helper()
	end := time.Now().Add(deadline)
	for bufpool.Stats().Outstanding != want {
		if time.Now().After(end) {
			t.Fatalf("%s: %d pooled buffers outstanding, want %d", what, bufpool.Stats().Outstanding, want)
		}
		time.Sleep(time.Millisecond)
	}
}
