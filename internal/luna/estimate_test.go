package luna

import "testing"

func TestPlanEstimateAdd(t *testing.T) {
	var p PlanEstimate
	p.Add(NodeEstimate{ID: "n1", Op: OpQueryDatabase, DocsOut: 100, Units: 1})
	p.Add(NodeEstimate{ID: "n2", Op: OpLLMFilter, DocsIn: 100, DocsOut: 50, LLMCalls: 100, Units: 100 * UnitsPerLLMCall})
	if len(p.Nodes) != 2 || p.LLMCalls != 100 {
		t.Fatalf("plan estimate = %+v", p)
	}
	if p.Units != 1+100*UnitsPerLLMCall {
		t.Fatalf("Units = %v", p.Units)
	}
}

// TestDefaultSelectivity: filters keep half their input, distinct 90%, and
// every other operator passes its documents through.
func TestDefaultSelectivity(t *testing.T) {
	for op, want := range map[string]float64{
		OpBasicFilter: 0.5,
		OpLLMFilter:   0.5,
		opDistinct:    0.9,
		OpTopK:        1.0,
		OpProject:     1.0,
	} {
		if got := defaultSelectivity(op); got != want {
			t.Errorf("defaultSelectivity(%q) = %v, want %v", op, got, want)
		}
	}
}
