package docparse

import (
	"fmt"
	"sort"

	"aryn/internal/docmodel"
	"aryn/internal/rawdoc"
	"aryn/internal/vision"
)

// Service is the parsing pipeline. It implements docset.Partitioner, so
// `ds.Partition(docparse.New())` is the paper's `partition(DocParse())`.
type Service struct {
	segmenter    vision.Segmenter
	ocrErrorRate float64 // applied only to scanned documents
	seed         int64
}

// minConfidence is the score under which a detection is dropped.
const minConfidence = 0.45

// Option configures the service.
type Option func(*Service)

// WithSegmenter swaps the segmentation model (e.g. a competitor profile
// for ablations).
func WithSegmenter(s vision.Segmenter) Option {
	return func(svc *Service) { svc.segmenter = s }
}

// WithOCRErrorRate sets the character error rate applied to documents
// marked scanned (default 0.02).
func WithOCRErrorRate(r float64) Option {
	return func(svc *Service) { svc.ocrErrorRate = r }
}

// WithSeed seeds the model noise (default 1).
func WithSeed(seed int64) Option {
	return func(svc *Service) { svc.seed = seed }
}

// New builds a DocParse service with the paper's own segmentation model.
func New(opts ...Option) *Service {
	svc := &Service{ocrErrorRate: 0.02, seed: 1}
	for _, o := range opts {
		o(svc)
	}
	if svc.segmenter == nil {
		svc.segmenter = vision.NewModel("DocParse", svc.seed, vision.ProfileDocParse())
	}
	return svc
}

// Name identifies the partitioner in plans.
func (s *Service) Name() string { return "DocParse/" + s.segmenter.Name() }

// Partition parses the document's raw binary into a labeled element tree.
func (s *Service) Partition(doc *docmodel.Document) (*docmodel.Document, error) {
	if len(doc.Binary) == 0 {
		return nil, fmt.Errorf("docparse: document %s has no binary content", doc.ID)
	}
	raw, err := rawdoc.Decode(doc.Binary)
	if err != nil {
		return nil, fmt.Errorf("docparse: %s: %w", doc.ID, err)
	}
	parsed, err := s.ParseRaw(raw)
	if err != nil {
		return nil, err
	}
	// Preserve identity and any pre-set properties.
	parsed.ID = doc.ID
	parsed.Path = doc.Path
	parsed.Properties = parsed.Properties.Merge(doc.Properties)
	return parsed, nil
}

// ParseRaw runs the full pipeline over an in-memory raw document.
func (s *Service) ParseRaw(raw *rawdoc.Doc) (*docmodel.Document, error) {
	out := docmodel.New(raw.ID)
	out.Title = raw.Title
	scanned := raw.Meta["scanned"] == "true"
	ocrRate := 0.0
	if scanned {
		ocrRate = s.ocrErrorRate
	}
	for _, page := range raw.Pages {
		elements := s.parsePage(raw.ID, page, ocrRate)
		out.Elements = append(out.Elements, elements...)
	}
	if out.Title == "" {
		for _, e := range out.Elements {
			if e.Type == docmodel.Title {
				out.Title = e.Text
				break
			}
		}
	}
	return out, nil
}

// parsePage runs segmentation + per-type extraction for one page.
func (s *Service) parsePage(docID string, page rawdoc.Page, ocrRate float64) []*docmodel.Element {
	pageKey := fmt.Sprintf("%s/%d", docID, page.Number)
	dets := s.segmenter.Segment(page, pageKey)
	dets = s.postprocess(dets)
	// Grid regions own their runs: free-text extraction never re-reads
	// table cells, even when a jittered text box overlaps a table edge.
	grids := vision.DetectTableGrids(page.Rules)

	elements := make([]*docmodel.Element, 0, len(dets))
	for _, det := range dets {
		e := &docmodel.Element{
			Type:       det.Type,
			Page:       page.Number,
			Box:        det.Box,
			Confidence: det.Confidence,
		}
		switch det.Type {
		case docmodel.Table:
			e.Table = vision.TableStructureOCR(page, det.Box, ocrRate, s.seed)
			e.Text = e.Table.Markdown()
		case docmodel.Picture:
			img := findImage(page, det.Box)
			if img != nil {
				e.Image = &docmodel.ImageData{
					Format: img.Format, Width: img.Width, Height: img.Height,
					Summary: vision.SummarizeImage(img),
				}
			}
		default:
			e.Text = vision.ExtractTextExcluding(page, det.Box, grids, ocrRate, s.seed)
		}
		// Regions that captured no content are detector hallucinations;
		// postprocessing drops them from the parse output.
		if e.Text == "" && e.Table == nil && e.Image == nil {
			continue
		}
		elements = append(elements, e)
	}
	return elements
}

// postprocess drops low-confidence detections and suppresses duplicates
// (NMS): overlapping boxes keep only the most confident detection.
func (s *Service) postprocess(dets []vision.Detection) []vision.Detection {
	kept := make([]vision.Detection, 0, len(dets))
	byConf := append([]vision.Detection(nil), dets...)
	sort.SliceStable(byConf, func(i, j int) bool { return byConf[i].Confidence > byConf[j].Confidence })
	for _, d := range byConf {
		if d.Confidence < minConfidence {
			continue
		}
		overlap := false
		for _, k := range kept {
			if d.Box.IoU(k.Box) > 0.55 {
				overlap = true
				break
			}
		}
		if !overlap {
			kept = append(kept, d)
		}
	}
	// Restore reading order.
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Box.Y0 != kept[j].Box.Y0 {
			return kept[i].Box.Y0 < kept[j].Box.Y0
		}
		return kept[i].Box.X0 < kept[j].Box.X0
	})
	return kept
}

func findImage(page rawdoc.Page, box docmodel.BBox) *rawdoc.ImageBlob {
	var best *rawdoc.ImageBlob
	bestIoU := 0.0
	for i := range page.Images {
		if iou := page.Images[i].Box.IoU(box); iou > bestIoU {
			bestIoU = iou
			best = &page.Images[i]
		}
	}
	if bestIoU < 0.2 {
		return nil
	}
	return best
}
