package solvecache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// tier is one keyed store of cached payloads: a map with a least-recently-
// used entry bound, its hit/miss counters, clone-on-read/clone-on-write, and
// — when it has a remote tag — the remote-store fallback on a local miss and
// the write-behind on a put (remote.go). Every cache tier is an instance.
// The robust, placement and result tiers are served entirely by lookup and
// put; the exact tier, which has no remote tag, uses the lower-level get and
// add and keeps its own match-and-rebind logic and counting (solve.go).
type tier[V any] struct {
	max   int       // entry bound; 0 = unbounded
	clone func(V) V // aliasing-free copy; nil for immutable payloads
	// tag names the tier in remote envelopes ("" = local only); a remote
	// payload is V's JSON form.
	tag    string
	remote *remote // the owning cache's store attachment

	mu  sync.Mutex
	m   map[Key]*list.Element // element values are *tierItem[V]
	lru list.List             // front = most recently used

	hits, misses atomic.Int64
}

type tierItem[V any] struct {
	key Key
	val V
}

// get returns the local payload under k and marks it most recently used.
// It neither counts nor clones.
func (t *tier[V]) get(k Key) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	t.lru.MoveToFront(el)
	return el.Value.(*tierItem[V]).val, true
}

// add stores v under k locally (last write wins: payloads are pure functions
// of their keys) and evicts the least recently used entry once the tier
// holds more than max.
func (t *tier[V]) add(k Key, v V) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.m[k]; ok {
		el.Value.(*tierItem[V]).val = v
		t.lru.MoveToFront(el)
		return
	}
	if t.m == nil {
		t.m = map[Key]*list.Element{}
	}
	t.m[k] = t.lru.PushFront(&tierItem[V]{key: k, val: v})
	if t.max > 0 && t.lru.Len() > t.max {
		delete(t.m, t.lru.Remove(t.lru.Back()).(*tierItem[V]).key)
	}
}

// len reports the number of stored entries.
func (t *tier[V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

func (t *tier[V]) copy(v V) V {
	if t.clone == nil {
		return v
	}
	return t.clone(v)
}

// lookup is the plain tiers' read path: a local hit, else a remote payload
// that valid accepts (stored locally; it counts as a hit of this tier and a
// remote hit), else a miss. The returned payload is a fresh copy.
func (t *tier[V]) lookup(k Key, valid func(V) bool) (V, bool) {
	v, ok := t.get(k)
	if !ok {
		if v, ok = t.fetch(k, valid); ok {
			t.add(k, v)
		}
	}
	if !ok {
		t.misses.Add(1)
		return v, false
	}
	t.hits.Add(1)
	return t.copy(v), true
}

// put stores a copy of v under k and writes v behind to the remote store.
func (t *tier[V]) put(k Key, v V) {
	t.add(k, t.copy(v))
	t.writeBehind(k, v)
}
