package solvecache

import "testing"

// TestTierLRUOrder pins the tier bound's eviction order: a hit refreshes its
// key, and past the bound the least recently used key is the one evicted.
func TestTierLRUOrder(t *testing.T) {
	c := NewBounded(2)
	sol := &RobustSolution{Alloc: map[string]int{"a": 1}}
	c.PutRobust(robustKey(1), sol)
	c.PutRobust(robustKey(2), sol)
	if _, ok := c.LookupRobust(robustKey(1), nil, 0); !ok { // refresh: key 2 is now the LRU
		t.Fatal("miss within the bound")
	}
	c.PutRobust(robustKey(3), sol)
	if _, ok := c.LookupRobust(robustKey(2), nil, 0); ok {
		t.Fatal("least recently used key survived eviction")
	}
	for _, b := range []int{1, 3} {
		if _, ok := c.LookupRobust(robustKey(b), nil, 0); !ok {
			t.Fatalf("key %d evicted instead of the least recently used one", b)
		}
	}
	if s := c.Stats(); s.RobustEntries != 2 {
		t.Fatalf("RobustEntries = %d, want the bound 2", s.RobustEntries)
	}

	// New is unbounded.
	u := New()
	for b := 0; b < 100; b++ {
		u.PutRobust(robustKey(b), sol)
	}
	if s := u.Stats(); s.RobustEntries != 100 {
		t.Fatalf("unbounded cache holds %d entries, want 100", s.RobustEntries)
	}
}
