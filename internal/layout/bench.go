package layout

import (
	"fmt"

	"aryn/internal/vision"
)

// EvaluateSegmenter runs a segmenter over every page of the corpus and
// scores it against the ground truth.
func EvaluateSegmenter(c *Corpus, seg vision.Segmenter) Result {
	gts := c.GroundTruths()
	var preds []Pred
	for _, d := range c.Docs {
		for _, p := range d.Pages {
			imageID := fmt.Sprintf("%s/%d", d.ID, p.Number)
			for _, det := range seg.Segment(p, imageID) {
				preds = append(preds, Pred{
					ImageID:    imageID,
					Box:        det.Box,
					Type:       det.Type,
					Confidence: det.Confidence,
				})
			}
		}
	}
	return Evaluate(gts, preds)
}

// Table1Services returns the four evaluated services with their calibrated
// profiles, in the paper's row order.
func Table1Services(seed int64) []vision.Segmenter {
	return []vision.Segmenter{
		vision.NewModel("DocParse", seed, vision.ProfileDocParse()),
		vision.NewModel("Amazon Textract", seed, vision.ProfileTextract()),
		vision.NewModel("Unstructured (YoloX)", seed, vision.ProfileUnstructured()),
		vision.NewModel("Azure AI Document Intelligence", seed, vision.ProfileAzure()),
	}
}
