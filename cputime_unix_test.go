//go:build unix

package socbuf_test

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the CPU time, user plus system, the process has used.
func cpuTime(t testing.TB) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
