package llm

import (
	"fmt"
	"strconv"
	"strings"
)

// Prompt contracts. Sycamore's semantic operators and the RAG baseline
// build prompts with these constructors; Sim recognizes the task marker on
// the first line and parses the labeled sections. A production deployment
// would send the same prompts to a hosted model — the markers are ordinary
// instruction text.

// Task markers (first line of the prompt).
const (
	TaskExtract   = "### TASK: extract"
	TaskFilter    = "### TASK: filter"
	TaskSummarize = "### TASK: summarize"
	TaskAnswer    = "### TASK: answer"
	TaskPlan      = "### TASK: plan"
)

const (
	docOpen  = "<<<DOCUMENT"
	docClose = "DOCUMENT>>>"
)

// CallClass classifies a request by its task marker: "plan", "extract",
// "filter", "summarize", "answer", or "generic" for prompts carrying no
// marker. The resilience middleware keys per-call-class timeout budgets
// on it (a planning call warrants a longer attempt budget than a yes/no
// filter probe), and a backend router could key tiering on it the same
// way.
func CallClass(req Request) string {
	first := req.Prompt
	if i := strings.IndexByte(first, '\n'); i >= 0 {
		first = first[:i]
	}
	switch first {
	case TaskPlan:
		return "plan"
	case TaskExtract:
		return "extract"
	case TaskFilter:
		return "filter"
	case TaskSummarize:
		return "summarize"
	case TaskAnswer:
		return "answer"
	}
	return "generic"
}

// FieldSpec describes one field an llmExtract call should pull from a
// document, mirroring the JSON-schema input of the paper's
// OpenAIPropertyExtractor (Fig. 4).
type FieldSpec struct {
	Name        string `json:"name"`
	Type        string `json:"type"` // "string" | "int" | "float" | "bool" | "date"
	Description string `json:"description,omitempty"`
}

// ExtractPrompt builds the prompt for extracting fields from one document.
func ExtractPrompt(fields []FieldSpec, docText string) string {
	var sb strings.Builder
	sb.WriteString(TaskExtract + "\n")
	sb.WriteString("Extract the following fields from the document below. Respond with a single JSON object. Use null for fields that cannot be determined.\n")
	sb.WriteString("FIELDS:\n")
	for _, f := range fields {
		desc := f.Description
		if desc != "" {
			desc = ": " + desc
		}
		fmt.Fprintf(&sb, "- %s (%s)%s\n", f.Name, f.Type, desc)
	}
	sb.WriteString(docOpen + "\n")
	sb.WriteString(docText)
	sb.WriteString("\n" + docClose + "\n")
	return sb.String()
}

// FilterPrompt builds the prompt for a yes/no document predicate.
func FilterPrompt(question, docText string) string {
	var sb strings.Builder
	sb.WriteString(TaskFilter + "\n")
	sb.WriteString("Answer strictly \"yes\" or \"no\".\n")
	sb.WriteString("QUESTION: " + question + "\n")
	sb.WriteString(docOpen + "\n")
	sb.WriteString(docText)
	sb.WriteString("\n" + docClose + "\n")
	return sb.String()
}

// FilterYes reports whether a filter completion is affirmative — the one
// reading of a yes/no reply every consumer shares.
func FilterYes(text string) bool {
	return strings.HasPrefix(strings.ToLower(strings.TrimSpace(text)), "yes")
}

// The packed filter prompt: k questions about one document in one request,
// the document sent once. Its contract with the model is the solo
// prompt's, line by line — the reply is one "yes" or "no" line per
// question, in question order — and its modelling assumption is
// independence: the model answers each question of a packed prompt exactly
// as it would answer that question alone (Sim does so by construction; see
// Sim.complete). That assumption is what lets every answer be stored under
// its own solo FilterPrompt key (FilterGroup), so a packed prompt is never
// a cache key and solo and packed plans share answers.
//
// Each question travels as a Go-quoted string on its own line, so a
// question holding a newline, a "QUESTION: " or a document delimiter
// cannot forge a line: unpackFilterPrompt(packFilterPrompt(qs, doc))
// returns exactly (qs, doc).
const (
	filterPackInstruction = "Answer each question strictly \"yes\" or \"no\": one line per question, in order."
	filterPackQuestion    = "QUESTION: "
)

// packFilterPrompt builds the packed prompt asking questions of docText.
func packFilterPrompt(questions []string, docText string) string {
	var sb strings.Builder
	sb.WriteString(TaskFilter + "\n" + filterPackInstruction + "\n")
	for _, q := range questions {
		sb.WriteString(filterPackQuestion + strconv.Quote(q) + "\n")
	}
	sb.WriteString(docOpen + "\n")
	sb.WriteString(docText)
	sb.WriteString("\n" + docClose + "\n")
	return sb.String()
}

// unpackFilterPrompt reads a packed prompt back into its questions and
// document; ok is false for anything packFilterPrompt did not build.
func unpackFilterPrompt(prompt string) (questions []string, docText string, ok bool) {
	rest, ok := strings.CutPrefix(prompt, TaskFilter+"\n"+filterPackInstruction+"\n")
	if !ok {
		return nil, "", false
	}
	for {
		line, after, found := strings.Cut(rest, "\n")
		quoted, isQuestion := strings.CutPrefix(line, filterPackQuestion)
		if !found || !isQuestion {
			break
		}
		q, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, "", false
		}
		questions = append(questions, q)
		rest = after
	}
	rest, opened := strings.CutPrefix(rest, docOpen+"\n")
	docText, closed := strings.CutSuffix(rest, "\n"+docClose+"\n")
	return questions, docText, opened && closed && len(questions) > 0
}

// splitFilterReply cuts the reply to a packed prompt into its n answer
// lines. A reply of any other shape is a garbled completion: retryable,
// and nothing of it is kept.
func splitFilterReply(text string, n int) ([]string, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != n {
		return nil, fmt.Errorf("llm: packed filter reply has %d lines for %d questions: %w", len(lines), n, ErrTransient)
	}
	return lines, nil
}

// FilterGroup is the request group asking every question of one document:
// member i is the solo FilterPrompt request of questions[i] — its cache
// key — two or more missing members go upstream as one packed prompt, and
// a resident "no" settles the group (the document fails the conjunction
// whatever the other answers are).
func FilterGroup(questions []string, docText string) Group {
	reqs := make([]Request, len(questions))
	for i, q := range questions {
		reqs[i] = Request{Prompt: FilterPrompt(q, docText)}
	}
	return Group{
		Reqs: reqs,
		Pack: func(members []int) Request {
			asked := make([]string, len(members))
			for j, i := range members {
				asked[j] = questions[i]
			}
			return Request{Prompt: packFilterPrompt(asked, docText)}
		},
		Split: splitFilterReply,
		Stop:  func(r Response) bool { return !FilterYes(r.Text) },
	}
}

// SummarizePrompt builds the prompt for summarizing/combining items under
// an instruction (llmGenerate / llmReduceByKey).
func SummarizePrompt(instruction string, items []string) string {
	var sb strings.Builder
	sb.WriteString(TaskSummarize + "\n")
	sb.WriteString("INSTRUCTION: " + instruction + "\n")
	sb.WriteString("ITEMS:\n")
	for i, it := range items {
		fmt.Fprintf(&sb, "[%d] %s\n", i+1, strings.ReplaceAll(it, "\n", " "))
	}
	return sb.String()
}

// RAGPrompt builds the conventional RAG prompt: retrieved chunks stuffed as
// context followed by the user question (§7.2 baseline).
func RAGPrompt(question string, chunks []RAGChunk) string {
	var sb strings.Builder
	sb.WriteString(TaskAnswer + "\n")
	sb.WriteString("Answer the question using ONLY the context below. End your reply with a final line of the form \"Answer: <value>\".\n")
	sb.WriteString("QUESTION: " + question + "\n")
	sb.WriteString("CONTEXT:\n")
	for i, c := range chunks {
		fmt.Fprintf(&sb, "[%d] (doc %s) %s\n", i+1, c.DocID, strings.ReplaceAll(c.Text, "\n", " "))
	}
	return sb.String()
}

// RAGChunk is one retrieved context chunk with provenance.
type RAGChunk struct {
	DocID string
	Text  string
}

// section extracts the text following "LABEL:" up to the next line that
// looks like another section label or the end of s.
func section(s, label string) string {
	idx := strings.Index(s, label)
	if idx < 0 {
		return ""
	}
	rest := s[idx+len(label):]
	if nl := strings.Index(rest, "\n"); nl >= 0 {
		// Single-line sections (QUESTION:, INSTRUCTION:) end at the newline.
		return strings.TrimSpace(rest[:nl])
	}
	return strings.TrimSpace(rest)
}

// documentBody extracts the document text between the delimiters. If the
// closing delimiter was truncated away by the context window, everything
// after the opener is used (the model sees a cut-off document).
func documentBody(prompt string) string {
	start := strings.Index(prompt, docOpen)
	if start < 0 {
		return ""
	}
	body := prompt[start+len(docOpen):]
	if end := strings.Index(body, docClose); end >= 0 {
		body = body[:end]
	}
	return strings.TrimSpace(body)
}

// parseFieldSpecs reads back the FIELDS: block of an extract prompt.
func parseFieldSpecs(prompt string) []FieldSpec {
	idx := strings.Index(prompt, "FIELDS:\n")
	if idx < 0 {
		return nil
	}
	var out []FieldSpec
	for _, line := range strings.Split(prompt[idx+len("FIELDS:\n"):], "\n") {
		if !strings.HasPrefix(line, "- ") {
			break
		}
		line = strings.TrimPrefix(line, "- ")
		name, rest, ok := strings.Cut(line, " (")
		if !ok {
			continue
		}
		typ, desc, _ := strings.Cut(rest, ")")
		desc = strings.TrimPrefix(desc, ":")
		out = append(out, FieldSpec{Name: strings.TrimSpace(name), Type: strings.TrimSpace(typ), Description: strings.TrimSpace(desc)})
	}
	return out
}

// parseRAGChunks reads back the CONTEXT chunks of an answer prompt,
// tolerating a final chunk cut off by window truncation.
func parseRAGChunks(prompt string) []RAGChunk {
	idx := strings.Index(prompt, "CONTEXT:\n")
	if idx < 0 {
		return nil
	}
	var out []RAGChunk
	for _, line := range strings.Split(prompt[idx+len("CONTEXT:\n"):], "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "[") {
			continue
		}
		_, rest, ok := strings.Cut(line, "] (doc ")
		if !ok {
			continue
		}
		id, text, ok := strings.Cut(rest, ") ")
		if !ok {
			continue
		}
		out = append(out, RAGChunk{DocID: id, Text: text})
	}
	return out
}
