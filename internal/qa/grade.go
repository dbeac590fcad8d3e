package qa

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

// Verdict is a graded outcome, matching Table 4's rows.
type Verdict string

// Verdicts.
const (
	Correct   Verdict = "correct"
	Incorrect Verdict = "incorrect"
	Refusal   Verdict = "refusal"
)

// ErrorCategory classifies an incorrect Luna answer per §7.2's taxonomy.
type ErrorCategory string

// Error categories.
const (
	ErrCounting       ErrorCategory = "counting"       // duplicates counted twice
	ErrFilter         ErrorCategory = "filter"         // llmFilter too generous
	ErrInterpretation ErrorCategory = "interpretation" // schema linking misread
	ErrOther          ErrorCategory = "other"
)

// Grade compares an answer against the question's ground truth.
func Grade(q Question, got luna.Answer, gt luna.Answer) Verdict {
	if got.Refused {
		return Refusal
	}
	switch q.Kind {
	case KindCount:
		if got.Kind != luna.AnswerNumber {
			return Incorrect
		}
		if int(math.Round(got.Number)) == int(math.Round(gt.Number)) {
			return Correct
		}
	case KindNumber, KindFraction:
		if got.Kind != luna.AnswerNumber {
			return Incorrect
		}
		tol := q.Tolerance
		if tol == 0 {
			if got.Number == gt.Number {
				return Correct
			}
			return Incorrect
		}
		denom := math.Abs(gt.Number)
		if denom < 1 {
			denom = 1
		}
		if math.Abs(got.Number-gt.Number) <= float64(tol*denom)+1e-9 {
			return Correct
		}
	case KindBreakdown:
		if got.Kind == luna.AnswerTable && tablesEqual(got.Table, gt.Table) {
			return Correct
		}
	case KindTop:
		if got.Kind == luna.AnswerList && setEqual(got.List, gt.List) {
			return Correct
		}
	case KindList:
		if got.Kind == luna.AnswerList && setEqual(got.List, gt.List) {
			return Correct
		}
		// A text answer enumerating exactly the right items also counts.
		if got.Kind == luna.AnswerText && setEqual(splitList(got.Text), gt.List) {
			return Correct
		}
	case KindText:
		hay := strings.ToLower(got.Text)
		if got.Kind == luna.AnswerList {
			hay = strings.ToLower(strings.Join(got.List, " "))
		}
		if hay == "" {
			return Incorrect
		}
		for _, kw := range q.Keywords {
			if !strings.Contains(hay, strings.ToLower(kw)) {
				return Incorrect
			}
		}
		return Correct
	}
	return Incorrect
}

func tablesEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[normLookup(b, k)]
		if !ok || math.Abs(v-bv) > 1e-9 {
			return false
		}
	}
	return true
}

// normLookup finds b's key equal to k case-insensitively.
func normLookup(b map[string]float64, k string) string {
	if _, ok := b[k]; ok {
		return k
	}
	for bk := range b {
		if strings.EqualFold(bk, k) {
			return bk
		}
	}
	return k
}

func setEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	na := normSet(a)
	nb := normSet(b)
	for k := range na {
		if !nb[k] {
			return false
		}
	}
	return true
}

func normSet(items []string) map[string]bool {
	out := map[string]bool{}
	for _, s := range items {
		out[strings.ToLower(strings.TrimSpace(s))] = true
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Classify assigns the §7.2 error category to an incorrect Luna answer.
// Priority: a result matching the naive report-level ground truth is a
// counting error; breakdown answers with disjoint key sets indicate a
// misinterpreted group-by field; anything flowing through an llmFilter is
// a filter error.
func Classify(q Question, got luna.Answer, c *ntsb.Corpus, plan *luna.LogicalPlan) ErrorCategory {
	if q.ReportGT != nil {
		rgt := q.ReportGT(c)
		if Grade(q, got, rgt) == Correct {
			return ErrCounting
		}
	}
	if q.Kind == KindBreakdown {
		gt := q.GT(c)
		if got.Kind == luna.AnswerTable && keyOverlap(got.Table, gt.Table) < 0.5 {
			return ErrInterpretation
		}
		return ErrCounting
	}
	if plan != nil && planUsesLLMFilter(plan) {
		return ErrFilter
	}
	return ErrOther
}

// keyOverlap is the fraction of a's keys present in b. A breakdown whose
// keys barely intersect the expected grouping indicates the planner linked
// the wrong field (interpretation error), not a miscount.
func keyOverlap(a, b map[string]float64) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for k := range a {
		if _, ok := b[normLookup(b, k)]; ok {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

func planUsesLLMFilter(plan *luna.LogicalPlan) bool {
	for _, n := range plan.Nodes {
		if n.Op == luna.OpLLMFilter || (n.Op == luna.OpFraction && n.Question != "") {
			return true
		}
	}
	return false
}

// ParseRAGAnswer coerces the RAG baseline's free-text "Answer:" value into
// the question's expected shape, leaving unparseable output as an
// (incorrect) text answer.
func ParseRAGAnswer(q Question, answerLine, fullText string, refused bool) luna.Answer {
	if refused {
		return luna.Answer{Kind: luna.AnswerText, Text: fullText, Refused: true}
	}
	line := strings.TrimSpace(answerLine)
	switch q.Kind {
	case KindCount, KindNumber, KindFraction:
		if f, err := strconv.ParseFloat(strings.TrimSuffix(line, "%"), 64); err == nil {
			return luna.NumberAnswer(f)
		}
		// Grab a leading number if the model wrapped it in words.
		for _, tok := range strings.Fields(line) {
			if f, err := strconv.ParseFloat(strings.Trim(tok, ".,"), 64); err == nil {
				return luna.NumberAnswer(f)
			}
		}
		return luna.TextAnswer(line)
	case KindBreakdown:
		t := map[string]float64{}
		for _, pair := range strings.Split(line, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				continue
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				t[strings.TrimSpace(k)] = f
			}
		}
		if len(t) > 0 {
			return luna.TableAnswer(t)
		}
		return luna.TextAnswer(line)
	case KindList, KindTop:
		if strings.EqualFold(line, "none") || line == "" {
			return luna.ListAnswer()
		}
		items := splitList(line)
		sort.Strings(items)
		return luna.ListAnswer(items...)
	default:
		return luna.TextAnswer(fullText)
	}
}
