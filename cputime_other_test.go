//go:build !unix

package socbuf_test

import (
	"testing"
	"time"
)

var processStart = time.Now()

// cpuTime falls back to wall time where getrusage is not available.
func cpuTime(testing.TB) time.Duration { return time.Since(processStart) }
