package cost

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestObserveAggregatesAndStats(t *testing.T) {
	s := NewStore()
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 4, LLMCalls: 10})
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 2, LLMCalls: 10})
	s.Observe(Observation{Signature: ""}) // ignored: no signature

	if got := s.Stats().Entries; got != 1 {
		t.Fatalf("Entries = %d, want 1", got)
	}
	a, ok := s.Lookup("llmFilter|q")
	if !ok {
		t.Fatal("Lookup miss for observed signature")
	}
	if a.Count != 2 || a.DocsIn != 20 || a.DocsOut != 6 || a.LLMCalls != 20 {
		t.Fatalf("aggregate = %+v", a)
	}
	if sel, ok := a.Selectivity(); !ok || sel != 0.3 {
		t.Fatalf("Selectivity = %v, %v; want 0.3, true", sel, ok)
	}
	if _, ok := s.Lookup("unknown"); ok {
		t.Fatal("Lookup hit for unseen signature")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Observations != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestAggregateNoEvidence(t *testing.T) {
	var a Aggregate
	if _, ok := a.Selectivity(); ok {
		t.Fatal("Selectivity ok with zero docs in")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feedback.json")

	s := NewStore()
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|a", DocsIn: 8, DocsOut: 2, LLMCalls: 8})
	s.Observe(Observation{Op: "basicFilter", Signature: "basicFilter|state=CA", DocsIn: 8, DocsOut: 5})
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Saved bytes are deterministic (sorted map keys).
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Save output not deterministic")
	}

	loaded := NewStore()
	// Pre-seed one overlapping signature so Load's merge path is covered.
	loaded.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|a", DocsIn: 2, DocsOut: 1, LLMCalls: 2})
	if err := loaded.Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	a, ok := loaded.Lookup("llmFilter|a")
	if !ok || a.DocsIn != 10 || a.DocsOut != 3 || a.LLMCalls != 10 {
		t.Fatalf("merged aggregate = %+v, ok=%v", a, ok)
	}
	if _, ok := loaded.Lookup("basicFilter|state=CA"); !ok {
		t.Fatal("loaded signature missing")
	}
}

func TestLoadMissingAndMalformed(t *testing.T) {
	s := NewStore()
	if err := s.Load(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing file should be a cold start, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(bad); err == nil {
		t.Fatal("malformed file should error")
	}
	wrongVersion := filepath.Join(t.TempDir(), "v9.json")
	if err := os.WriteFile(wrongVersion, []byte(`{"version":9,"entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(wrongVersion); err == nil {
		t.Fatal("unsupported version should error")
	}
}

// TestLoadIgnoresRetiredSums: a file written when the store also summed
// tokens and busy time still loads, and those sums are dropped.
func TestLoadIgnoresRetiredSums(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"version":1,"entries":{"llmFilter|q":{"op":"llmFilter","count":2,"docs_in":10,"docs_out":4,"llm_calls":10,"prompt_tokens":900,"completion_tokens":20,"busy_ms":1.5}}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	want := Aggregate{Op: "llmFilter", Count: 2, DocsIn: 10, DocsOut: 4, LLMCalls: 10}
	if a, ok := s.Lookup("llmFilter|q"); !ok || a != want {
		t.Fatalf("loaded %+v, want %+v", a, want)
	}
}

// TestLoadRejectsNegativeSums: a feedback file whose sums go below zero
// (or would overflow the store's) is malformed, and the store keeps what
// it had.
func TestLoadRejectsNegativeSums(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"negative": `{"version":1,"entries":{"llmFilter|q":{"count":1,"docs_in":10,"docs_out":-5}}}`,
		"overflow": `{"version":1,"entries":{"llmFilter|q":{"count":1,"docs_in":9223372036854775807,"docs_out":1}}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 4, DocsOut: 1})
		if err := s.Load(path); err == nil {
			t.Errorf("%s: Load accepted %s", name, body)
		}
		if a, _ := s.Lookup("llmFilter|q"); a.DocsIn != 4 || a.DocsOut != 1 || a.Count != 1 {
			t.Errorf("%s: a rejected file changed the store: %+v", name, a)
		}
	}
}

// FuzzFeedbackLoad: for any bytes, Load returns an error or a store whose
// every selectivity is ≥ 0, and it never panics.
func FuzzFeedbackLoad(f *testing.F) {
	f.Add([]byte(`{"version":1,"entries":{"llmFilter|q":{"op":"llmFilter","count":1,"docs_in":10,"docs_out":-5}}}`))
	f.Add([]byte(`{"version":1,"entries":{"llmFilter|q":{"op":"llmFilter","count":2,"docs_in":10,"docs_out":4,"llm_calls":10,"busy_ms":1.5},"basicFilter|x":null,"":{}}}`))
	f.Add([]byte(`{"version":9,"entries":{}}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// One fuzz process runs its inputs one at a time: one file serves.
		path := filepath.Join(dir, "feedback.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		if err := s.Load(path); err != nil {
			return
		}
		for sig, a := range s.entries {
			if sel, _ := s.Selectivity(a.Op, sig); sel < 0 {
				t.Fatalf("%q: selectivity %v from %+v", sig, sel, *a)
			}
		}
	})
}

func TestModelPrefersObservedEvidence(t *testing.T) {
	s := NewStore()
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 1, LLMCalls: 10})

	if sel, observed := s.Selectivity("llmFilter", "llmFilter|q"); !observed || sel != 0.1 {
		t.Fatalf("Selectivity = %v, observed=%v; want 0.1 observed", sel, observed)
	}
	if sel, observed := s.Selectivity("llmFilter", "llmFilter|unseen"); observed || sel != 0.5 {
		t.Fatalf("default Selectivity = %v, observed=%v; want 0.5 default", sel, observed)
	}
}

func TestModelNilStoreFallsBack(t *testing.T) {
	var s *Store
	if sel, observed := s.Selectivity("basicFilter", "sig"); observed || sel != 0.5 {
		t.Fatalf("nil store Selectivity = %v, observed=%v", sel, observed)
	}
	if sel, observed := s.Selectivity("topK", "sig"); observed || sel != 1.0 {
		t.Fatalf("nil store pass-through Selectivity = %v, observed=%v", sel, observed)
	}
	if _, ok := s.Lookup("sig"); ok {
		t.Fatal("nil store found evidence")
	}
	if s := DefaultSelectivity("project"); s != 1.0 {
		t.Fatalf("pass-through default selectivity = %v", s)
	}
}

func TestPlanEstimateAdd(t *testing.T) {
	var p PlanEstimate
	p.Add(NodeEstimate{ID: "n1", Op: "queryDatabase", DocsOut: 100, Units: 1})
	p.Add(NodeEstimate{ID: "n2", Op: "llmFilter", DocsIn: 100, DocsOut: 50, LLMCalls: 100, Units: 100 * UnitsPerLLMCall})
	if len(p.Nodes) != 2 || p.LLMCalls != 100 {
		t.Fatalf("plan estimate = %+v", p)
	}
	if p.Units != 1+100*UnitsPerLLMCall {
		t.Fatalf("Units = %v", p.Units)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 1, DocsOut: 1, LLMCalls: 1})
				s.Lookup("llmFilter|q")
				s.Stats()
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Observations != 800 {
		t.Fatalf("Observations = %d, want 800", st.Observations)
	}
}
