package solvecache

import "testing"

// TestTierLRUOrder pins the tier bound's eviction order: a hit refreshes its
// key, and past the bound the least recently used key is the one evicted.
func TestTierLRUOrder(t *testing.T) {
	c := NewBounded(2)
	key := func(budget int) Key { return AnalyticFingerprint([]byte("arch"), budget, 3) }
	sol := &AnalyticSolution{Alloc: map[string]int{"a": 1}}
	c.PutAnalytic(key(1), sol)
	c.PutAnalytic(key(2), sol)
	if _, ok := c.LookupAnalytic(key(1), nil, 0); !ok { // refresh: key 2 is now the LRU
		t.Fatal("miss within the bound")
	}
	c.PutAnalytic(key(3), sol)
	if _, ok := c.LookupAnalytic(key(2), nil, 0); ok {
		t.Fatal("least recently used key survived eviction")
	}
	for _, b := range []int{1, 3} {
		if _, ok := c.LookupAnalytic(key(b), nil, 0); !ok {
			t.Fatalf("key %d evicted instead of the least recently used one", b)
		}
	}
	if s := c.Stats(); s.AnalyticEntries != 2 {
		t.Fatalf("AnalyticEntries = %d, want the bound 2", s.AnalyticEntries)
	}

	// New is unbounded.
	u := New()
	for b := 0; b < 100; b++ {
		u.PutAnalytic(key(b), sol)
	}
	if s := u.Stats(); s.AnalyticEntries != 100 {
		t.Fatalf("unbounded cache holds %d entries, want 100", s.AnalyticEntries)
	}
}
