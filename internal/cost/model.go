package cost

// Relative unit costs, calibrated so one LLM round-trip dwarfs any
// amount of predicate evaluation — the paper's core economics. The
// absolute numbers are arbitrary; only the ratios steer the optimizer.
const (
	// UnitsPerLLMCall is the unit cost of one LLM round-trip.
	UnitsPerLLMCall = 100.0
	// UnitsPerPredicate is the unit cost of evaluating one structured
	// predicate (or index probe) on one document.
	UnitsPerPredicate = 0.01
	// UnitsPerProxy is the unit cost of one embedding-similarity proxy
	// screen (a dot product; far cheaper than an LLM call, pricier than
	// a property compare).
	UnitsPerProxy = 1.0
)

// DefaultEscalationRate is the assumed fraction of documents a proxy
// cascade escalates to the full LLM before any evidence is observed.
// Deliberately conservative: the optimizer should not promise savings
// the cascade has not yet demonstrated.
const DefaultEscalationRate = 0.7

// defaultSelectivity maps operator names to the fraction of input
// documents assumed to survive, before any observed evidence. Operator
// names mirror luna's wire constants; this package keeps its own copy
// so as not to import luna.
var defaultSelectivity = map[string]float64{
	"basicFilter":      0.5,
	"llmFilter":        0.5,
	"llmFilterCascade": 0.5,
	"distinct":         0.9,
}

// DefaultSelectivity returns the assumed selectivity for an operator
// with no observed evidence (1.0 for pass-through operators).
func DefaultSelectivity(op string) float64 {
	if s, ok := defaultSelectivity[op]; ok {
		return s
	}
	return 1.0
}

// Model answers per-operator cost questions, preferring observed
// evidence from its feedback store over the static defaults. A nil
// Store (or a signature the store has never seen) falls back to
// defaults, so a cold model is always usable.
type Model struct {
	Store *Store
}

// NewModel returns a model backed by store (which may be nil for a
// defaults-only model).
func NewModel(store *Store) *Model {
	return &Model{Store: store}
}

// Selectivity returns the expected docs-out/docs-in ratio for an
// operator instance, and whether the figure comes from observed
// evidence rather than defaults.
func (m *Model) Selectivity(op, signature string) (sel float64, observed bool) {
	if m != nil && m.Store != nil {
		if a, ok := m.Store.Lookup(signature); ok {
			if s, ok := a.Selectivity(); ok {
				return s, true
			}
		}
	}
	return DefaultSelectivity(op), false
}

// NodeEstimate is one plan node's cost estimate, wire-stable for
// embedding in /plan responses and EXPLAIN output.
type NodeEstimate struct {
	ID string `json:"id"`
	Op string `json:"op"`
	// DocsIn/DocsOut are the estimated document counts crossing the node.
	DocsIn  float64 `json:"docs_in"`
	DocsOut float64 `json:"docs_out"`
	// LLMCalls is the estimated number of LLM round-trips the node makes.
	LLMCalls float64 `json:"llm_calls"`
	// Units is the node's estimated cost in abstract units
	// (UnitsPerLLMCall per call + cheap per-document work).
	Units float64 `json:"units"`
	// Observed is true when the estimate is refined by feedback-store
	// evidence rather than seeded entirely from defaults.
	Observed bool `json:"observed,omitempty"`
}

// PlanEstimate is a whole plan's cost estimate: per-node figures in
// topological order plus plan-level totals.
type PlanEstimate struct {
	Nodes []NodeEstimate `json:"nodes"`
	// LLMCalls/Units are the totals across all nodes.
	LLMCalls float64 `json:"llm_calls"`
	Units    float64 `json:"units"`
}

// Add folds a node estimate into the plan totals.
func (p *PlanEstimate) Add(n NodeEstimate) {
	p.Nodes = append(p.Nodes, n)
	p.LLMCalls += n.LLMCalls
	p.Units += n.Units
}
