package leakcheck

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"pcxxstreams/internal/bufpool"
)

// TestCleanNamesTheLeak: a buffer held past the end fails the check in every
// build, on its count; a pooldebug build reports it with the stack that took
// it, a plain one says how to get that stack. Once it is back the check
// passes.
func TestCleanNamesTheLeak(t *testing.T) {
	g, o := runtime.NumGoroutine(), bufpool.Stats().Outstanding
	b := bufpool.Get(100)
	var out strings.Builder
	if clean(&out, g, o, 0) {
		t.Fatal("a buffer still held passed the check")
	}
	if bufpool.Debug {
		if !strings.Contains(out.String(), "1 buffers at") || !strings.Contains(out.String(), "leakcheck.TestCleanNamesTheLeak") {
			t.Errorf("the report does not name the taking stack:\n%s", out.String())
		}
	} else if !strings.Contains(out.String(), "Outstanding is +1") || !strings.Contains(out.String(), "-tags pooldebug") {
		t.Errorf("the report does not give the count and how to name the stack:\n%s", out.String())
	}
	bufpool.Put(b)
	if !clean(io.Discard, g, o, 0) {
		t.Error("the check fails with every buffer back")
	}
}

// TestCleanWaitsForGoroutines: a goroutine still running fails the check
// with its stack printed; one that exits within the wait does not.
func TestCleanWaitsForGoroutines(t *testing.T) {
	g, o := runtime.NumGoroutine(), bufpool.Stats().Outstanding
	stop := make(chan struct{})
	go func() { <-stop }()
	var out strings.Builder
	if clean(&out, g, o, 0) {
		t.Fatal("a goroutine still running passed the check")
	}
	if !strings.Contains(out.String(), "goroutines still running") || !strings.Contains(out.String(), "TestCleanWaitsForGoroutines") {
		t.Errorf("the report does not show the goroutine:\n%s", out.String())
	}
	time.AfterFunc(20*time.Millisecond, func() { close(stop) })
	if !clean(io.Discard, g, o, 5*time.Second) {
		t.Error("a goroutine that exited within the wait failed the check")
	}
}
