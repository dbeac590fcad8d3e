package layout

import (
	"fmt"
	"math/rand"
	"strings"

	"aryn/internal/rawdoc"
)

// Domain is a document genre in the benchmark corpus. DocLayNet draws from
// several professional domains; the synthetic corpus mirrors that spread
// so per-class statistics are diverse.
type Domain string

// The corpus domains.
const (
	DomainFinancial  Domain = "financial"
	DomainScientific Domain = "scientific"
	DomainLegal      Domain = "legal"
	DomainManual     Domain = "manual"
	DomainPatent     Domain = "patent"
)

// AllDomains lists the corpus genres.
func AllDomains() []Domain {
	return []Domain{DomainFinancial, DomainScientific, DomainLegal, DomainManual, DomainPatent}
}

var domainWords = map[Domain][]string{
	DomainFinancial: {"revenue", "quarter", "earnings", "guidance", "margin", "segment",
		"operating", "income", "fiscal", "dividend", "shareholders", "liquidity",
		"assets", "capital", "expenditure", "growth", "outlook", "portfolio"},
	DomainScientific: {"experiment", "baseline", "method", "dataset", "accuracy", "model",
		"evaluation", "hypothesis", "results", "analysis", "significance", "sample",
		"protocol", "measurement", "variance", "distribution", "parameters", "training"},
	DomainLegal: {"plaintiff", "defendant", "court", "motion", "statute", "jurisdiction",
		"liability", "damages", "counsel", "evidence", "ruling", "appeal",
		"contract", "breach", "settlement", "testimony", "injunction", "precedent"},
	DomainManual: {"install", "assembly", "warning", "procedure", "component", "maintenance",
		"torque", "inspect", "replace", "calibration", "safety", "operation",
		"lubricant", "fastener", "bracket", "housing", "switch", "terminal"},
	DomainPatent: {"invention", "embodiment", "apparatus", "claim", "substrate", "actuator",
		"configured", "coupled", "disposed", "plurality", "signal", "processor",
		"housing", "member", "surface", "assembly", "circuit", "interface"},
}

var domainTitles = map[Domain][]string{
	DomainFinancial:  {"Quarterly Earnings Review", "Annual Report Highlights", "Investor Presentation Summary"},
	DomainScientific: {"Empirical Evaluation of Methods", "A Study of System Behavior", "Experimental Results and Analysis"},
	DomainLegal:      {"Memorandum Opinion and Order", "Case Summary and Findings", "Settlement Agreement Overview"},
	DomainManual:     {"Installation and Service Manual", "Operator Reference Guide", "Maintenance Procedures Handbook"},
	DomainPatent:     {"System and Method Disclosure", "Apparatus Specification", "Detailed Description of Embodiments"},
}

// sentence emits a deterministic pseudo-sentence from the domain pool.
func sentence(rng *rand.Rand, words []string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	s := strings.Join(parts, " ")
	return strings.ToUpper(s[:1]) + s[1:] + "."
}

func paragraph(rng *rand.Rand, words []string) string {
	n := 2 + rng.Intn(4)
	out := make([]string, n)
	for i := range out {
		out[i] = sentence(rng, words, 8+rng.Intn(9))
	}
	return strings.Join(out, " ")
}

// GenerateDoc synthesizes one labeled document of the given domain.
func GenerateDoc(id string, domain Domain, seed int64) *rawdoc.Doc {
	rng := rand.New(rand.NewSource(seed))
	words := domainWords[domain]
	titles := domainTitles[domain]

	b := rawdoc.NewBuilder(id, titles[rng.Intn(len(titles))])
	b.SetFurniture(strings.ToUpper(string(domain))+" DOCUMENT", id)
	b.AddTitle(titles[rng.Intn(len(titles))])

	nSections := 2 + rng.Intn(3)
	for s := 0; s < nSections; s++ {
		b.AddSectionHeader(fmt.Sprintf("%d. %s", s+1, sentence(rng, words, 3+rng.Intn(3))))
		nBlocks := 2 + rng.Intn(4)
		for blk := 0; blk < nBlocks; blk++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // paragraphs dominate, as in DocLayNet
				b.AddParagraph(paragraph(rng, words))
			case 5:
				for li := 0; li < 2+rng.Intn(3); li++ {
					b.AddListItem(sentence(rng, words, 5+rng.Intn(5)))
				}
			case 6:
				rows := make([][]string, 2+rng.Intn(4))
				cols := 2 + rng.Intn(3)
				for r := range rows {
					row := make([]string, cols)
					for c := range row {
						if r == 0 {
							row[c] = strings.Title(words[rng.Intn(len(words))])
						} else {
							row[c] = fmt.Sprintf("%d", rng.Intn(10000))
						}
					}
					rows[r] = row
				}
				b.AddTable(rows, true)
				b.AddCaption(fmt.Sprintf("Table %d: %s", blk+1, sentence(rng, words, 4)))
			case 7:
				b.AddImage(sentence(rng, words, 5), "png", 400+rng.Intn(400), 250+rng.Intn(250))
				b.AddCaption(fmt.Sprintf("Figure %d: %s", blk+1, sentence(rng, words, 4)))
			case 8:
				b.AddFormula(fmt.Sprintf("f(x) = %c·x + %d", 'a'+rune(rng.Intn(26)), rng.Intn(100)))
			case 9:
				b.AddFootnote(sentence(rng, words, 6+rng.Intn(6)))
			}
		}
	}
	return b.Doc()
}

// Corpus is a labeled page collection.
type Corpus struct {
	Docs []*rawdoc.Doc
}

// GenerateCorpus synthesizes n documents spread evenly across the domains.
func GenerateCorpus(n int, seed int64) *Corpus {
	domains := AllDomains()
	c := &Corpus{}
	for i := 0; i < n; i++ {
		domain := domains[i%len(domains)]
		id := fmt.Sprintf("%s-%04d", domain, i)
		c.Docs = append(c.Docs, GenerateDoc(id, domain, seed+int64(i)*7919))
	}
	return c
}

// GroundTruths flattens every document's regions into evaluation records.
func (c *Corpus) GroundTruths() []GroundTruth {
	var out []GroundTruth
	for _, d := range c.Docs {
		for _, r := range d.Regions {
			out = append(out, GroundTruth{
				ImageID: fmt.Sprintf("%s/%d", d.ID, r.Page),
				Box:     r.Box,
				Type:    r.Type,
			})
		}
	}
	return out
}
