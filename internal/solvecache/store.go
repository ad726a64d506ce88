package solvecache

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the byte-oriented, content-addressed key-value seam behind the
// cache's shared tiers (robust and placement). Keys are the fingerprints of
// DESIGN.md §4 — version- and backend-tagged hashes of a solve's
// mathematical content — so a Store never needs its own namespacing: two
// processes that compute the same key are asking for the same payload, and
// a payload is a pure function of its key (identical bits no matter which
// process stored it).
//
// Implementations must be safe for concurrent use and fail OPEN: a Get that
// cannot answer (dead peer, timeout, version drift) reports a miss, and a
// Put that cannot store is silently dropped — a Store failure can never fail
// a solve, only cost a recompute.
type Store interface {
	// Get fetches the payload stored under k. The second return is false on
	// any miss, including transport failures.
	Get(ctx context.Context, k Key) ([]byte, bool)
	// Put stores payload under k. Best-effort: implementations may drop it.
	Put(ctx context.Context, k Key, payload []byte)
}

// MemStore is the in-process Store: a mutex-guarded map whose payloads
// together hold at most memStoreBudget bytes, evicting the least recently
// used keys past that. It backs the shared remote tier when mounted behind
// StoreHandler (the router's /v1/cache/ endpoint, which any client that
// reaches the router may PUT to) and stands in for a remote peer in tests.
// Eviction costs a peer a recompute, never correctness: payloads are pure
// functions of their keys.
type MemStore struct {
	mu    sync.Mutex
	m     map[Key]*list.Element // element values are *memItem
	lru   list.List             // front = most recently used
	bytes int                   // summed payload lengths
}

type memItem struct {
	key     Key
	payload []byte
}

// memStoreBudget bounds a MemStore's summed payload bytes: sixteen
// maximum-size payloads (64 MiB).
const memStoreBudget = 16 * maxStorePayload

// NewMemStore returns an empty in-process store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[Key]*list.Element{}}
}

// Get returns a copy of the stored payload and marks k most recently used.
func (s *MemStore) Get(_ context.Context, k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return append([]byte(nil), el.Value.(*memItem).payload...), true
}

// Put stores a copy of payload under k as the most recently used key, then
// evicts least recently used keys until the store is within its byte
// budget. Duplicate stores are benign: payloads are pure functions of their
// keys, so last-write-wins never changes what a reader sees.
func (s *MemStore) Put(_ context.Context, k Key, payload []byte) {
	if len(payload) == 0 {
		return
	}
	cp := append([]byte(nil), payload...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		it := el.Value.(*memItem)
		s.bytes += len(cp) - len(it.payload)
		it.payload = cp
		s.lru.MoveToFront(el)
	} else {
		s.m[k] = s.lru.PushFront(&memItem{key: k, payload: cp})
		s.bytes += len(cp)
	}
	for s.bytes > memStoreBudget {
		it := s.lru.Remove(s.lru.Back()).(*memItem)
		delete(s.m, it.key)
		s.bytes -= len(it.payload)
	}
}

// Len reports the number of stored payloads (for stats and tests).
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Bytes reports the summed length of the stored payloads (for stats and
// tests).
func (s *MemStore) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// versionHeader tags every sidecar-protocol payload with the fingerprint
// serialisation version. The version is already hashed into every key, so a
// peer on a different version computes disjoint keys and can never alias;
// the header is the belt-and-braces check that also catches a proxy or
// operator wiring two incompatible fleets to one store.
const versionHeader = "X-Socbuf-Cache-Version"

// StoreHandler serves the sidecar cache protocol over any Store:
//
//	GET  /<64-hex-key>  → 200 + payload (version-tagged) | 404
//	PUT  /<64-hex-key>  → 204 (version header must match; 400 otherwise)
//
// Mount it under a prefix with http.StripPrefix (socbufrouter serves it at
// /v1/cache/). Payload bodies are capped at maxStorePayload.
func StoreHandler(s Store) http.Handler {
	return &storeHandler{s: s}
}

// maxStorePayload bounds one sidecar payload (4 MiB — the largest realistic
// entry, a big placement result, is tens of KB).
const maxStorePayload = 4 << 20

type storeHandler struct {
	s Store
}

func (h *storeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k, err := parseStoreKey(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		b, ok := h.s.Get(r.Context(), k)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Header().Set(versionHeader, strconv.Itoa(version))
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(b)
	case http.MethodPut:
		if v := r.Header.Get(versionHeader); v != strconv.Itoa(version) {
			http.Error(w, fmt.Sprintf("cache version %q, want %d", v, version), http.StatusBadRequest)
			return
		}
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStorePayload))
		if err != nil {
			http.Error(w, "payload too large or unreadable", http.StatusBadRequest)
			return
		}
		if len(b) == 0 {
			http.Error(w, "empty payload", http.StatusBadRequest)
			return
		}
		h.s.Put(r.Context(), k, b)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// parseStoreKey extracts the hex key from the request path (the last
// segment, so the handler works both bare and behind StripPrefix).
func parseStoreKey(path string) (Key, error) {
	seg := strings.TrimPrefix(path, "/")
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	var k Key
	if len(seg) != 2*len(k) {
		return k, fmt.Errorf("key %q: want %d hex chars", seg, 2*len(k))
	}
	for i := 0; i < len(k); i++ {
		hi, ok1 := unhex(seg[2*i])
		lo, ok2 := unhex(seg[2*i+1])
		if !ok1 || !ok2 {
			return k, fmt.Errorf("key %q: invalid hex", seg)
		}
		k[i] = hi<<4 | lo
	}
	return k, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// RemoteOptions tunes a RemoteStore. The zero value is usable.
type RemoteOptions struct {
	// Timeout bounds each Get round-trip (default 250ms). A remote answer
	// that takes longer than a local recompute is not worth waiting for.
	Timeout time.Duration
	// PutQueue bounds the async write-behind queue (default 256). Puts
	// beyond the bound are dropped, never blocked on.
	PutQueue int
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5): once open, Gets answer miss locally
	// without touching the network until BreakerCooldown has passed.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker skips the peer before
	// probing it again (default 2s).
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests). Its Timeout is not used;
	// per-request contexts carry the deadline.
	Client *http.Client
}

// RemoteStore is the peer/sidecar implementation of Store: GET/PUT by
// fingerprint against an HTTP endpoint speaking the StoreHandler protocol
// (e.g. socbufrouter's /v1/cache). Every failure path degrades to a miss —
// strict per-op timeouts, a consecutive-failure circuit breaker, and
// write-behind Puts on a bounded queue — so a dead or slow peer can never
// fail (or indefinitely stall) a solve.
type RemoteStore struct {
	base   string
	client *http.Client
	opts   RemoteOptions

	puts   chan remotePut
	done   chan struct{}
	closed sync.Once

	fails    atomic.Int64 // consecutive transport failures
	openedAt atomic.Int64 // unix-nano when the breaker opened (0 = closed)

	gets, hits, errs, putDrops atomic.Int64
}

type remotePut struct {
	key     Key
	payload []byte
}

// NewRemoteStore builds a store speaking the sidecar protocol against base
// (e.g. "http://127.0.0.1:8360/v1/cache"). Call Close when done to stop the
// write-behind worker.
func NewRemoteStore(base string, opts RemoteOptions) *RemoteStore {
	if opts.Timeout <= 0 {
		opts.Timeout = 250 * time.Millisecond
	}
	if opts.PutQueue <= 0 {
		opts.PutQueue = 256
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     60 * time.Second,
		}}
	}
	s := &RemoteStore{
		base:   strings.TrimRight(base, "/"),
		client: client,
		opts:   opts,
		puts:   make(chan remotePut, opts.PutQueue),
		done:   make(chan struct{}),
	}
	go s.putLoop()
	return s
}

// Close stops the write-behind worker. Queued puts are dropped; in-flight
// Gets finish on their own deadlines. Idempotent.
func (s *RemoteStore) Close() {
	s.closed.Do(func() { close(s.done) })
}

// url renders the key's endpoint.
func (s *RemoteStore) url(k Key) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 0, len(s.base)+1+2*len(k))
	b = append(b, s.base...)
	b = append(b, '/')
	for _, c := range k {
		b = append(b, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return string(b)
}

// tripped reports whether the breaker currently short-circuits the peer,
// re-arming a probe once the cooldown has passed.
func (s *RemoteStore) tripped() bool {
	opened := s.openedAt.Load()
	if opened == 0 {
		return false
	}
	if time.Since(time.Unix(0, opened)) < s.opts.BreakerCooldown {
		return true
	}
	// Cooldown over: allow one probe through (the next failure re-opens).
	s.openedAt.CompareAndSwap(opened, 0)
	return false
}

// fail records one transport failure, opening the breaker at the threshold.
func (s *RemoteStore) fail() {
	s.errs.Add(1)
	if s.fails.Add(1) >= int64(s.opts.BreakerThreshold) {
		s.openedAt.CompareAndSwap(0, time.Now().UnixNano())
		s.fails.Store(0)
	}
}

// ok records one successful round-trip (closes the breaker).
func (s *RemoteStore) ok() {
	s.fails.Store(0)
	s.openedAt.Store(0)
}

// Get fetches k from the peer. Any failure — transport, timeout, non-200,
// version drift, open breaker — is a miss.
func (s *RemoteStore) Get(ctx context.Context, k Key) ([]byte, bool) {
	if s == nil || s.tripped() {
		return nil, false
	}
	s.gets.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	rctx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, s.url(k), nil)
	if err != nil {
		s.fail()
		return nil, false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		s.fail()
		return nil, false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		s.ok() // the peer answered; a miss is a healthy response
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		s.fail()
		return nil, false
	}
	if v := resp.Header.Get(versionHeader); v != strconv.Itoa(version) {
		// A peer serving another fingerprint version: its payloads describe
		// different serialisation layouts, so treat everything as a miss.
		s.fail()
		return nil, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxStorePayload+1))
	if err != nil || len(b) == 0 || len(b) > maxStorePayload {
		s.fail()
		return nil, false
	}
	s.ok()
	s.hits.Add(1)
	return b, true
}

// Put enqueues a write-behind store of payload under k. It never blocks:
// when the queue is full the put is dropped (and counted), trading
// completeness of the shared tier for a hot path free of remote latency.
func (s *RemoteStore) Put(_ context.Context, k Key, payload []byte) {
	if s == nil || len(payload) == 0 || len(payload) > maxStorePayload || s.tripped() {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	select {
	case s.puts <- remotePut{key: k, payload: cp}:
	default:
		s.putDrops.Add(1)
	}
}

// putLoop drains the write-behind queue, one synchronous PUT at a time.
func (s *RemoteStore) putLoop() {
	for {
		select {
		case <-s.done:
			return
		case p := <-s.puts:
			s.putOne(p)
		}
	}
}

func (s *RemoteStore) putOne(p remotePut) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.url(p.key), strings.NewReader(string(p.payload)))
	if err != nil {
		s.fail()
		return
	}
	req.Header.Set(versionHeader, strconv.Itoa(version))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		s.fail()
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		s.fail()
		return
	}
	s.ok()
}

// RemoteStoreStats is a point-in-time snapshot of a RemoteStore's transport
// counters (distinct from the Cache's remote-tier hit accounting, which
// counts payloads actually adopted).
type RemoteStoreStats struct {
	Gets, Hits, Errors, PutDrops int64
	BreakerOpen                  bool
}

// Stats snapshots the transport counters.
func (s *RemoteStore) Stats() RemoteStoreStats {
	if s == nil {
		return RemoteStoreStats{}
	}
	return RemoteStoreStats{
		Gets:        s.gets.Load(),
		Hits:        s.hits.Load(),
		Errors:      s.errs.Load(),
		PutDrops:    s.putDrops.Load(),
		BreakerOpen: s.openedAt.Load() != 0,
	}
}
