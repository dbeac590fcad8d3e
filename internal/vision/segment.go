package vision

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/rawdoc"
)

// Detection is one predicted layout region.
type Detection struct {
	Box        docmodel.BBox
	Type       docmodel.ElementType
	Confidence float64
}

// Segmenter turns a rendered page into labeled regions.
type Segmenter interface {
	// Segment detects regions on the page. pageKey seeds the noise model
	// (use docID/pageNumber) so runs are reproducible.
	Segment(page rawdoc.Page, pageKey string) []Detection
	// Name identifies the backing service/model.
	Name() string
}

// NoiseProfile calibrates a service's detection quality.
type NoiseProfile struct {
	// Jitter is the box-coordinate noise as a fraction of box size.
	Jitter float64
	// MissRate is the per-region probability of a missed detection.
	MissRate float64
	// ConfusionRate is the per-region probability of label confusion.
	ConfusionRate float64
	// MergeRate is the probability of merging two vertically adjacent
	// regions into one box.
	MergeRate float64
	// SplitRate is the probability of splitting a region into two boxes.
	SplitRate float64
	// FalsePositives is the expected number of spurious detections per
	// page.
	FalsePositives float64
	// ClusterSlop scales the paragraph-gap threshold: sloppy clustering
	// merges adjacent blocks organically (a proposal-quality failure, not
	// post-hoc noise).
	ClusterSlop float64
	// ConfidenceFloor is the minimum confidence emitted.
	ConfidenceFloor float64
}

// Model is the configurable segmentation model.
type Model struct {
	name    string
	seed    int64
	profile NoiseProfile
}

// NewModel builds a segmenter with the given noise profile.
func NewModel(name string, seed int64, profile NoiseProfile) *Model {
	if profile.ClusterSlop == 0 {
		profile.ClusterSlop = 1
	}
	return &Model{name: name, seed: seed, profile: profile}
}

// Name identifies the model.
func (m *Model) Name() string { return m.name }

// Service profiles calibrated against Table 1 of the paper. DocParse's
// deformable-DETR is the reference; the commercial services degrade in
// localization precision and label fidelity.

// ProfileDocParse is the paper's own DocLayNet-trained Deformable DETR.
func ProfileDocParse() NoiseProfile {
	return NoiseProfile{
		Jitter: 0.024, MissRate: 0.02, ConfusionRate: 0.05,
		MergeRate: 0.015, SplitRate: 0.012, FalsePositives: 1.6,
		ClusterSlop: 1.0, ConfidenceFloor: 0.5,
	}
}

// ProfileTextract approximates Amazon Textract's layout quality.
func ProfileTextract() NoiseProfile {
	return NoiseProfile{
		Jitter: 0.045, MissRate: 0.09, ConfusionRate: 0.15,
		MergeRate: 0.05, SplitRate: 0.04, FalsePositives: 3.0,
		ClusterSlop: 1.15, ConfidenceFloor: 0.35,
	}
}

// ProfileUnstructured approximates the Unstructured REST API with YoloX.
func ProfileUnstructured() NoiseProfile {
	return NoiseProfile{
		Jitter: 0.05, MissRate: 0.09, ConfusionRate: 0.20,
		MergeRate: 0.07, SplitRate: 0.05, FalsePositives: 5.5,
		ClusterSlop: 1.2, ConfidenceFloor: 0.3,
	}
}

// ProfileAzure approximates Azure AI Document Intelligence.
func ProfileAzure() NoiseProfile {
	return NoiseProfile{
		Jitter: 0.055, MissRate: 0.10, ConfusionRate: 0.23,
		MergeRate: 0.09, SplitRate: 0.06, FalsePositives: 9.0,
		ClusterSlop: 1.3, ConfidenceFloor: 0.25,
	}
}

// Segment implements Segmenter.
func (m *Model) Segment(page rawdoc.Page, pageKey string) []Detection {
	rng := m.pageRNG(pageKey)
	props := m.propose(page)
	dets := make([]Detection, 0, len(props))
	for _, pr := range props {
		label := classify(pr, page)
		// Real detectors emit a wide confidence spread over true positives.
		conf := 0.99 - float64(rng.Float64()*0.35)
		dets = append(dets, Detection{Box: pr.box, Type: label, Confidence: conf})
	}
	dets = m.applyNoise(rng, page, dets)
	sort.Slice(dets, func(i, j int) bool {
		if dets[i].Box.Y0 != dets[j].Box.Y0 {
			return dets[i].Box.Y0 < dets[j].Box.Y0
		}
		return dets[i].Box.X0 < dets[j].Box.X0
	})
	return dets
}

func (m *Model) pageRNG(pageKey string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(pageKey))
	return rand.New(rand.NewSource(m.seed ^ int64(h.Sum64())))
}

// proposal is an unlabeled region candidate with its member runs.
type proposal struct {
	box     docmodel.BBox
	runs    []rawdoc.TextRun
	isTable bool
	isImage bool
	image   *rawdoc.ImageBlob
}

// propose clusters the page into candidate regions: rule-grid tables
// first, then images, then font/gap clustering of the remaining text runs.
func (m *Model) propose(page rawdoc.Page) []proposal {
	var props []proposal

	tables := DetectTableGrids(page.Rules)
	inTable := func(b docmodel.BBox) int {
		for i, t := range tables {
			if t.Intersect(b).Area() > 0.5*b.Area() {
				return i
			}
		}
		return -1
	}
	tableRuns := make([][]rawdoc.TextRun, len(tables))
	var freeRuns []rawdoc.TextRun
	for _, r := range page.Runs {
		if ti := inTable(r.Box); ti >= 0 {
			tableRuns[ti] = append(tableRuns[ti], r)
		} else {
			freeRuns = append(freeRuns, r)
		}
	}
	for i, t := range tables {
		props = append(props, proposal{box: t, runs: tableRuns[i], isTable: true})
	}
	for i := range page.Images {
		img := page.Images[i]
		props = append(props, proposal{box: img.Box, isImage: true, image: &img})
	}

	// Sort free runs by reading position and cluster into blocks.
	sort.Slice(freeRuns, func(i, j int) bool {
		if freeRuns[i].Box.Y0 != freeRuns[j].Box.Y0 {
			return freeRuns[i].Box.Y0 < freeRuns[j].Box.Y0
		}
		return freeRuns[i].Box.X0 < freeRuns[j].Box.X0
	})
	var cur []rawdoc.TextRun
	flush := func() {
		if len(cur) == 0 {
			return
		}
		box := cur[0].Box
		for _, r := range cur[1:] {
			box = box.Union(r.Box)
		}
		props = append(props, proposal{box: box, runs: append([]rawdoc.TextRun(nil), cur...)})
		cur = nil
	}
	for _, r := range freeRuns {
		if len(cur) == 0 {
			cur = append(cur, r)
			continue
		}
		prev := cur[len(cur)-1]
		sameFont := prev.Font == r.Font
		gap := r.Box.Y0 - prev.Box.Y1
		maxGap := rawdoc.LineHeight(r.Font) * 0.75 * m.profile.ClusterSlop
		if sameFont && gap >= -1 && gap <= maxGap {
			cur = append(cur, r)
		} else {
			flush()
			cur = append(cur, r)
		}
	}
	flush()
	return props
}

// DetectTableGrids finds rectangular rule structures: clusters of rules
// whose union forms a grid-like box. DocParse uses the grids both for
// table proposals and to give tables ownership of their text runs.
func DetectTableGrids(rules []rawdoc.Rule) []docmodel.BBox {
	if len(rules) == 0 {
		return nil
	}
	// Union-find over rules that touch each other.
	parent := make([]int, len(rules))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	grown := make([]docmodel.BBox, len(rules))
	for i, r := range rules {
		grown[i] = docmodel.BBox{X0: r.Box.X0 - 1, Y0: r.Box.Y0 - 1, X1: r.Box.X1 + 1, Y1: r.Box.Y1 + 1}
	}
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			if !grown[i].Intersect(grown[j]).Empty() {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := range rules {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	var out []docmodel.BBox
	for _, members := range groups {
		if len(members) < 4 { // a grid needs >= 2 horizontal + 2 vertical rules
			continue
		}
		box := rules[members[0]].Box
		for _, i := range members[1:] {
			box = box.Union(rules[i].Box)
		}
		out = append(out, box)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Y0 < out[j].Y0 })
	return out
}

// classify assigns a layout class from typographic features — the
// decision surface a trained detector learns.
func classify(pr proposal, page rawdoc.Page) docmodel.ElementType {
	switch {
	case pr.isTable:
		return docmodel.Table
	case pr.isImage:
		return docmodel.Picture
	}
	if len(pr.runs) == 0 {
		return docmodel.Text
	}
	f := pr.runs[0].Font
	text := pr.runs[0].Text
	topBand := pr.box.Y0 < rawdoc.Margin
	bottomBand := pr.box.Y1 > page.Height-rawdoc.Margin+8
	switch {
	case topBand && f.Size < 10:
		return docmodel.PageHeader
	case bottomBand && f.Size < 10 && !strings.HasPrefix(text, "1."):
		return docmodel.PageFooter
	case f.Size >= 16 && f.Bold:
		return docmodel.Title
	case f.Size >= 11.5 && f.Bold:
		return docmodel.SectionHeader
	case f.Size <= 8:
		return docmodel.Footnote
	case strings.HasPrefix(text, "•"):
		return docmodel.ListItem
	case f.Italic && f.Size <= 9.5:
		return docmodel.Caption
	case f.Italic && isCentered(pr.box, page.Width):
		return docmodel.Formula
	default:
		return docmodel.Text
	}
}

func isCentered(b docmodel.BBox, pageWidth float64) bool {
	center := float64(pageWidth / 2)
	off := float64(b.CenterX()) - center
	if off < 0 {
		off = -off
	}
	return off < 0.08*pageWidth && b.Width() < 0.8*(pageWidth-2*rawdoc.Margin)
}

// confusable maps each class to the labels detectors mix it up with.
var confusable = map[docmodel.ElementType][]docmodel.ElementType{
	docmodel.Title:         {docmodel.SectionHeader, docmodel.Text},
	docmodel.SectionHeader: {docmodel.Title, docmodel.Text},
	docmodel.Text:          {docmodel.ListItem, docmodel.Caption},
	docmodel.ListItem:      {docmodel.Text},
	docmodel.Caption:       {docmodel.Text, docmodel.Footnote},
	docmodel.Footnote:      {docmodel.PageFooter, docmodel.Text},
	docmodel.PageFooter:    {docmodel.Footnote},
	docmodel.PageHeader:    {docmodel.Text},
	docmodel.Formula:       {docmodel.Text},
	// Table is absent: rule-grid proposals are unambiguous enough that
	// detectors essentially never relabel them (and DocLayNet models score
	// tables among their strongest classes).
	docmodel.Picture: {docmodel.Table},
}

// applyNoise degrades clean detections per the service profile.
func (m *Model) applyNoise(rng *rand.Rand, page rawdoc.Page, dets []Detection) []Detection {
	p := m.profile
	var out []Detection
	i := 0
	for i < len(dets) {
		d := dets[i]
		// Rule-grid tables are anchored geometry: detectors do not miss or
		// fragment them (DocLayNet models score Table among their best
		// classes); they can still jitter.
		solid := d.Type == docmodel.Table
		if !solid && rng.Float64() < p.MissRate {
			i++
			continue
		}
		// Merge with the next detection. Grid-anchored and raster regions
		// present hard visual boundaries, so merges happen only between
		// text-like neighbors.
		mergeable := d.Type != docmodel.Table && d.Type != docmodel.Picture &&
			i+1 < len(dets) && dets[i+1].Type != docmodel.Table && dets[i+1].Type != docmodel.Picture
		if mergeable && rng.Float64() < p.MergeRate {
			d.Box = d.Box.Union(dets[i+1].Box)
			if dets[i+1].Box.Area() > d.Box.Area()/2 && rng.Float64() < 0.5 {
				d.Type = dets[i+1].Type
			}
			i++ // consume the merged neighbor
		} else if !solid && rng.Float64() < p.SplitRate && d.Box.Height() > 30 {
			mid := (d.Box.Y0 + d.Box.Y1) / 2
			top, bottom := d, d
			top.Box.Y1 = mid
			bottom.Box.Y0 = mid
			top = m.perturb(rng, top)
			bottom = m.perturb(rng, bottom)
			out = append(out, top, bottom)
			i++
			continue
		}
		out = append(out, m.perturb(rng, d))
		i++
	}
	// False positives.
	nFP := int(p.FalsePositives)
	if rng.Float64() < p.FalsePositives-float64(nFP) {
		nFP++
	}
	for f := 0; f < nFP; f++ {
		w := 40 + float64(rng.Float64()*120)
		h := 10 + float64(rng.Float64()*30)
		x := rawdoc.Margin + float64(rng.Float64()*(page.Width-2*rawdoc.Margin-w))
		y := rawdoc.Margin + float64(rng.Float64()*(page.Height-2*rawdoc.Margin-h))
		// False positives span the confidence range (real detectors emit
		// confident hallucinations too), so they interleave with true
		// positives and depress precision without touching recall.
		out = append(out, Detection{
			Box:        docmodel.BBox{X0: x, Y0: y, X1: x + w, Y1: y + h},
			Type:       docmodel.ElementType(rng.Intn(docmodel.NumElementTypes)),
			Confidence: p.ConfidenceFloor + float64(rng.Float64()*(0.93-p.ConfidenceFloor)),
		})
	}
	return out
}

// perturb applies label confusion and box jitter to one detection.
func (m *Model) perturb(rng *rand.Rand, d Detection) Detection {
	p := m.profile
	if rng.Float64() < p.ConfusionRate {
		if alts := confusable[d.Type]; len(alts) > 0 {
			d.Type = alts[rng.Intn(len(alts))]
			d.Confidence *= 0.85
		}
	}
	if p.Jitter > 0 {
		w, h := d.Box.Width(), d.Box.Height()
		d.Box.X0 += float64(rng.NormFloat64() * p.Jitter * w)
		d.Box.X1 += float64(rng.NormFloat64() * p.Jitter * w)
		d.Box.Y0 += float64(rng.NormFloat64() * p.Jitter * h)
		d.Box.Y1 += float64(rng.NormFloat64() * p.Jitter * h)
		if d.Box.X1 <= d.Box.X0 {
			d.Box.X1 = d.Box.X0 + 1
		}
		if d.Box.Y1 <= d.Box.Y0 {
			d.Box.Y1 = d.Box.Y0 + 1
		}
	}
	if d.Confidence < p.ConfidenceFloor {
		d.Confidence = p.ConfidenceFloor
	}
	return d
}

var _ Segmenter = (*Model)(nil)
