package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"aryn/internal/luna"
)

// session is one client's conversational state: its history, answered
// each turn by the system's current query service. mu serializes one
// client-visible exchange (Ask plus the turn-counter read) so parallel
// requests to the same session each report their own turn; lastUsed is
// guarded by the owning table's mutex.
type session struct {
	id       string
	mu       sync.Mutex
	conv     luna.Conversation
	lastUsed time.Time
}

// sessionTable owns chat sessions: creation, lookup-with-touch, TTL
// eviction by a janitor goroutine, and a hard cap so an open endpoint
// cannot grow memory without bound.
type sessionTable struct {
	mu       sync.Mutex
	m        map[string]*session
	ttl      time.Duration
	max      int
	evicted  int64
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// errSessionsFull is returned by create when the table is at capacity —
// the serving layer maps it to 429 (shed, like the admission gate).
var errSessionsFull = fmt.Errorf("server: session table full")

func newSessionTable(ttl time.Duration, max int) *sessionTable {
	t := &sessionTable{
		m:    make(map[string]*session),
		ttl:  ttl,
		max:  max,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go t.janitor()
	return t
}

// create registers a fresh session and returns it.
func (t *sessionTable) create() (*session, error) {
	id := newSessionID()
	s := &session{id: id, lastUsed: time.Now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= t.max {
		return nil, errSessionsFull
	}
	t.m[id] = s
	return s, nil
}

// get looks up a live session and bumps its TTL clock (nil if unknown or
// already evicted).
func (t *sessionTable) get(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[id]
	if s != nil {
		s.lastUsed = time.Now()
	}
	return s
}

// remove drops a session (used when a freshly created session's first
// exchange fails and the client never learned its ID).
func (t *sessionTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// count reports the live session population.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// evictedCount reports how many sessions the janitor has reaped.
func (t *sessionTable) evictedCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// janitor reaps idle sessions every ttl/4 (at least every 100ms for the
// short TTLs tests use).
func (t *sessionTable) janitor() {
	defer close(t.done)
	period := t.ttl / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case now := <-ticker.C:
			t.mu.Lock()
			for id, s := range t.m {
				if now.Sub(s.lastUsed) > t.ttl {
					delete(t.m, id)
					t.evicted++
				}
			}
			t.mu.Unlock()
		}
	}
}

// close stops the janitor (idempotent).
func (t *sessionTable) close() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a time-derived ID keeps the server limping rather than
		// panicking.
		return fmt.Sprintf("s-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
