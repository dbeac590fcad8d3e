package layout

import (
	"fmt"
	"sort"

	"aryn/internal/docmodel"
)

// GroundTruth is one annotated region.
type GroundTruth struct {
	ImageID string
	Box     docmodel.BBox
	Type    docmodel.ElementType
}

// Pred is one detection.
type Pred struct {
	ImageID    string
	Box        docmodel.BBox
	Type       docmodel.ElementType
	Confidence float64
}

// ClassResult is the per-class evaluation outcome.
type ClassResult struct {
	AP    float64
	AR    float64
	NumGT int
}

// Result is the aggregate COCO evaluation.
type Result struct {
	// MAP is mean average precision over IoU in [.50:.05:.95] and classes.
	MAP float64
	// MAR is mean average recall over the same thresholds and classes.
	MAR float64
	// PerClass breaks results down by layout class.
	PerClass map[docmodel.ElementType]ClassResult
}

// iouThresholds is the standard COCO sweep.
var iouThresholds = func() []float64 {
	var out []float64
	for t := 0.50; t < 0.951; t += 0.05 {
		out = append(out, t)
	}
	return out
}()

// maxDetsPerImage is COCO's AR@100 detection cap.
const maxDetsPerImage = 100

// Evaluate computes COCO mAP/mAR for the predictions against the ground
// truth. Classes with no ground-truth instances are excluded from the
// means, matching the COCO convention.
func Evaluate(gts []GroundTruth, preds []Pred) Result {
	res := Result{PerClass: map[docmodel.ElementType]ClassResult{}}
	var mapSum, marSum float64
	classes := 0
	for _, cls := range docmodel.AllElementTypes() {
		cr := evaluateClass(cls, gts, preds)
		if cr.NumGT == 0 {
			continue
		}
		res.PerClass[cls] = cr
		mapSum += cr.AP
		marSum += cr.AR
		classes++
	}
	if classes > 0 {
		res.MAP = mapSum / float64(classes)
		res.MAR = marSum / float64(classes)
	}
	return res
}

func evaluateClass(cls docmodel.ElementType, gts []GroundTruth, preds []Pred) ClassResult {
	// Ground truth per image.
	gtByImage := map[string][]docmodel.BBox{}
	totalGT := 0
	for _, g := range gts {
		if g.Type != cls {
			continue
		}
		gtByImage[g.ImageID] = append(gtByImage[g.ImageID], g.Box)
		totalGT++
	}
	if totalGT == 0 {
		return ClassResult{}
	}

	// Class predictions, capped per image, sorted by confidence.
	perImage := map[string]int{}
	var cp []Pred
	// Stable per-image cap: order by confidence first.
	all := make([]Pred, 0)
	for _, p := range preds {
		if p.Type == cls {
			all = append(all, p)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Confidence > all[j].Confidence })
	for _, p := range all {
		if perImage[p.ImageID] >= maxDetsPerImage {
			continue
		}
		perImage[p.ImageID]++
		cp = append(cp, p)
	}

	var apSum, arSum float64
	for _, thr := range iouThresholds {
		ap, recall := prAtThreshold(cp, gtByImage, totalGT, thr)
		apSum += ap
		arSum += recall
	}
	n := float64(len(iouThresholds))
	return ClassResult{AP: apSum / n, AR: arSum / n, NumGT: totalGT}
}

// prAtThreshold computes 101-point interpolated AP and final recall at one
// IoU threshold.
func prAtThreshold(preds []Pred, gtByImage map[string][]docmodel.BBox, totalGT int, thr float64) (ap, recall float64) {
	matched := map[string][]bool{}
	for img, boxes := range gtByImage {
		matched[img] = make([]bool, len(boxes))
	}
	tp := make([]bool, len(preds))
	for i, p := range preds {
		boxes := gtByImage[p.ImageID]
		bestIoU, bestJ := 0.0, -1
		for j, g := range boxes {
			if matched[p.ImageID][j] {
				continue
			}
			if iou := p.Box.IoU(g); iou >= thr && iou > bestIoU {
				bestIoU, bestJ = iou, j
			}
		}
		if bestJ >= 0 {
			matched[p.ImageID][bestJ] = true
			tp[i] = true
		}
	}
	// Precision/recall curve.
	var cumTP, cumFP int
	precisions := make([]float64, len(preds))
	recalls := make([]float64, len(preds))
	for i := range preds {
		if tp[i] {
			cumTP++
		} else {
			cumFP++
		}
		precisions[i] = float64(cumTP) / float64(cumTP+cumFP)
		recalls[i] = float64(cumTP) / float64(totalGT)
	}
	// Monotone non-increasing precision envelope from the right.
	for i := len(precisions) - 2; i >= 0; i-- {
		if precisions[i+1] > precisions[i] {
			precisions[i] = precisions[i+1]
		}
	}
	// 101-point interpolation.
	var sum float64
	for r := 0; r <= 100; r++ {
		target := float64(r) / 100
		// First index with recall >= target.
		idx := sort.Search(len(recalls), func(i int) bool { return recalls[i] >= target })
		if idx < len(precisions) {
			sum += precisions[idx]
		}
	}
	ap = sum / 101
	if len(recalls) > 0 {
		recall = recalls[len(recalls)-1]
	}
	return ap, recall
}

// String renders the result as a report row.
func (r Result) String() string {
	return fmt.Sprintf("mAP=%.3f mAR=%.3f", r.MAP, r.MAR)
}
