package sim

import (
	"math/rand"
)

// ClientView is what an arbiter sees about one client buffer at decision
// time. A bus presents its clients' views in buffer-ID order.
type ClientView struct {
	Len int // current queue length
	Cap int // allocated capacity
}

// Arbiter decides which client a bus serves next. Pick receives the views of
// ALL clients (some may be empty) and must return the index of a client with
// Len > 0, or -1 to idle. Returning an invalid index is a programming error
// the simulator reports as such.
type Arbiter interface {
	Pick(clients []ClientView, rng *rand.Rand) int
}

// LongestQueue grants the client with the most queued packets (ties to the
// lowest index, i.e. lexicographically smallest buffer ID). This is the
// simulator's default arbitration and the paper's pre-sizing behaviour.
type LongestQueue struct{}

// Pick implements Arbiter.
func (LongestQueue) Pick(clients []ClientView, _ *rand.Rand) int {
	best, bestLen := -1, 0
	for i, c := range clients {
		if c.Len > bestLen {
			best, bestLen = i, c.Len
		}
	}
	return best
}
