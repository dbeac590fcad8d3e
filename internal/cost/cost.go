package cost

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"sync"

	"aryn/internal/statefile"
)

// Observation is one operator's measured behaviour from a single query
// execution, distilled from its NodeTrace snapshot.
type Observation struct {
	// Op is the logical operator name ("llmFilter", "basicFilter", ...).
	Op string
	// Signature identifies the operator instance across queries: the
	// operator name plus its semantically load-bearing parameters (the
	// question for llmFilter, the rendered predicate for basicFilter).
	Signature string
	// DocsIn/DocsOut are the document counts crossing the operator.
	DocsIn, DocsOut int64
	// LLMCalls is the operator's model calls.
	LLMCalls int64
}

// Aggregate is the accumulated evidence for one operator signature. All
// fields are sums over the observations recorded so far; the derived
// selectivity comes from its accessor so a zero denominator can be reported
// as "no evidence".
type Aggregate struct {
	Op       string `json:"op"`
	Count    int64  `json:"count"`
	DocsIn   int64  `json:"docs_in"`
	DocsOut  int64  `json:"docs_out"`
	LLMCalls int64  `json:"llm_calls"`
}

// Selectivity reports the observed docs-out/docs-in ratio. ok is false
// when no documents have flowed through the operator yet.
func (a Aggregate) Selectivity() (float64, bool) {
	if a.DocsIn <= 0 {
		return 0, false
	}
	return float64(a.DocsOut) / float64(a.DocsIn), true
}

// add folds b's sums into a.
func (a *Aggregate) add(b Aggregate) {
	a.Count += b.Count
	a.DocsIn += b.DocsIn
	a.DocsOut += b.DocsOut
	a.LLMCalls += b.LLMCalls
}

// valid reports whether every sum is non-negative. Sums of observations
// cannot be negative, so an aggregate with one below zero is corrupt (or
// overflowed), and its selectivity would be too.
func (a Aggregate) valid() bool {
	return a.Count >= 0 && a.DocsIn >= 0 && a.DocsOut >= 0 && a.LLMCalls >= 0
}

// StoreStats is the wire-stable snapshot of a feedback store, surfaced
// on /stats so operators can watch the loop learn.
type StoreStats struct {
	// Entries is the number of distinct operator signatures observed.
	Entries int `json:"entries"`
	// Observations counts Observe calls (one per operator per query).
	Observations int64 `json:"observations"`
	// Hits/Misses count optimizer lookups that found / did not find
	// observed evidence for a signature.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Store is the persistent feedback store: a signature → Aggregate map
// fed by EXPLAIN ANALYZE after every query and consulted by the
// optimizer's cost model. Safe for concurrent use.
type Store struct {
	mu           sync.Mutex
	entries      map[string]*Aggregate
	observations int64
	hits, misses int64
}

// NewStore returns an empty feedback store.
func NewStore() *Store {
	return &Store{entries: make(map[string]*Aggregate)}
}

// Observe folds one operator execution into the signature's aggregate.
func (s *Store) Observe(o Observation) {
	if o.Signature == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.entries[o.Signature]
	if a == nil {
		a = &Aggregate{Op: o.Op}
		s.entries[o.Signature] = a
	}
	a.add(Aggregate{Count: 1, DocsIn: o.DocsIn, DocsOut: o.DocsOut, LLMCalls: o.LLMCalls})
	s.observations++
}

// Lookup returns the aggregate for a signature, counting the probe as a
// hit or miss in the store's stats. A nil store has seen nothing.
func (s *Store) Lookup(signature string) (Aggregate, bool) {
	if s == nil {
		return Aggregate{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.entries[signature]
	if !ok {
		s.misses++
		return Aggregate{}, false
	}
	s.hits++
	return *a, true
}

// Selectivity returns the expected docs-out/docs-in ratio for an
// operator instance, and whether the figure comes from observed evidence
// rather than DefaultSelectivity. A nil store (or a signature it has never
// seen) falls back to the default, so a cold store is always usable.
func (s *Store) Selectivity(op, signature string) (sel float64, observed bool) {
	if a, ok := s.Lookup(signature); ok {
		if sel, ok := a.Selectivity(); ok {
			return sel, true
		}
	}
	return DefaultSelectivity(op), false
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:      len(s.entries),
		Observations: s.observations,
		Hits:         s.hits,
		Misses:       s.misses,
	}
}

// storeFile is the on-disk format: versioned so later PRs can migrate.
// encoding/json marshals map keys in sorted order, so the file bytes are
// deterministic for a given store state.
type storeFile struct {
	Version int                   `json:"version"`
	Entries map[string]*Aggregate `json:"entries"`
}

// Save writes the store's aggregates to path as indented JSON. Counter
// state (hits/misses/observations) is process-local and not persisted.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	file := storeFile{Version: 1, Entries: make(map[string]*Aggregate, len(s.entries))}
	for sig, a := range s.entries {
		cp := *a
		file.Entries[sig] = &cp
	}
	s.mu.Unlock()
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return fmt.Errorf("cost: encode feedback store: %w", err)
	}
	return statefile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// Load merges aggregates from a file written by Save into the store.
// A missing file is not an error (cold start); a malformed file is, and so
// is one with a negative sum or one whose sums would overflow the store's:
// either leaves the store as it was.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cost: read feedback store: %w", err)
	}
	var file storeFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("cost: decode feedback store %s: %w", path, err)
	}
	if file.Version != 1 {
		return fmt.Errorf("cost: feedback store %s: unsupported version %d", path, file.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := make(map[string]*Aggregate, len(file.Entries))
	for sig, a := range file.Entries {
		if a == nil || sig == "" {
			continue
		}
		if !a.valid() {
			return fmt.Errorf("cost: feedback store %s: entry %q has a negative sum", path, sig)
		}
		m := *a
		if cur := s.entries[sig]; cur != nil {
			m = *cur
			if m.add(*a); !m.valid() {
				return fmt.Errorf("cost: feedback store %s: entry %q overflows the store's sums", path, sig)
			}
		}
		merged[sig] = &m
	}
	maps.Copy(s.entries, merged)
	return nil
}
