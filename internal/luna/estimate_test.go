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
// every other operator passes its documents through (a topK whose k covers
// them).
func TestDefaultSelectivity(t *testing.T) {
	for _, tc := range []struct {
		op   LogicalOp
		want float64
	}{
		{LogicalOp{Op: OpBasicFilter}, 50},
		{LogicalOp{Op: OpLLMFilter, Question: "q?"}, 50},
		{LogicalOp{Op: opDistinct, Field: "f"}, 90},
		{LogicalOp{Op: OpTopK, K: 100}, 100},
		{LogicalOp{Op: OpProject}, 100},
	} {
		est := EstimatePlan(Chain(LogicalOp{Op: OpQueryDatabase}, tc.op), 100)
		if got := est.Nodes[1].DocsOut; got != tc.want {
			t.Errorf("%s over 100 documents keeps %v, want %v", tc.op.Op, got, tc.want)
		}
	}
}
