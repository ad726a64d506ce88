//go:build unix

package cliutil

import (
	"context"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestShutdownOnSignalSurvivesRepeatedSIGTERM sends this test process
// SIGTERM twice, as a supervisor that signals the process group does. The
// first ends the shutdown context; the second must neither kill the
// process (a failure here ends the whole test binary) nor end the context
// again.
func TestShutdownOnSignalSurvivesRepeatedSIGTERM(t *testing.T) {
	ctx, stop := ShutdownOnSignal()
	defer stop()
	var done atomic.Int32
	context.AfterFunc(ctx, func() { done.Add(1) })
	pid := os.Getpid()
	if err := syscall.Kill(pid, syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the first SIGTERM did not end the shutdown context")
	}
	if err := syscall.Kill(pid, syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Nothing observable marks the duplicate's arrival while SIGTERM
	// stays caught. A signal a process sends itself is delivered before
	// kill returns when the sending thread does not block it (POSIX), so
	// the pause only covers a runtime that delivers it later.
	time.Sleep(200 * time.Millisecond)
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("context error %v, want context.Canceled", err)
	}
	if n := done.Load(); n != 1 {
		t.Fatalf("the context was done %d times, want once", n)
	}
}
