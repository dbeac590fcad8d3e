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
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 4, LLMCalls: 10, PromptTokens: 100, CompletionTokens: 20, BusyMS: 5})
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 2, LLMCalls: 10, PromptTokens: 100, CompletionTokens: 20, BusyMS: 5})
	s.Observe(Observation{Signature: ""}) // ignored: no signature

	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
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

func TestModelPrefersObservedEvidence(t *testing.T) {
	s := NewStore()
	s.Observe(Observation{Op: "llmFilter", Signature: "llmFilter|q", DocsIn: 10, DocsOut: 1, LLMCalls: 10})
	m := NewModel(s)

	if sel, observed := m.Selectivity("llmFilter", "llmFilter|q"); !observed || sel != 0.1 {
		t.Fatalf("Selectivity = %v, observed=%v; want 0.1 observed", sel, observed)
	}
	if sel, observed := m.Selectivity("llmFilter", "llmFilter|unseen"); observed || sel != 0.5 {
		t.Fatalf("default Selectivity = %v, observed=%v; want 0.5 default", sel, observed)
	}
}

func TestModelNilStoreFallsBack(t *testing.T) {
	var m *Model
	if sel, observed := m.Selectivity("basicFilter", "sig"); observed || sel != 0.5 {
		t.Fatalf("nil model Selectivity = %v, observed=%v", sel, observed)
	}
	m2 := NewModel(nil)
	if sel, observed := m2.Selectivity("topK", "sig"); observed || sel != 1.0 {
		t.Fatalf("storeless Selectivity = %v, observed=%v", sel, observed)
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
