package vision

import (
	"math"
	"sort"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/rawdoc"
)

// TableStructureOCR recovers the cell grid of a detected table region —
// the Table-Transformer stage of DocParse (§4: "for tables, we use a Table
// Transformer-based model to identify the individual cells").
//
// It reads the rule lines inside the region to find row and column
// boundaries, then assigns text runs to cells. Like the paper's model it
// is robust but not clairvoyant: tables without visible rules fall back to
// run-position inference. On scanned pages (charErrorRate > 0) cell texts
// pass through the OCR channel and pick up character substitutions at
// that rate.
func TableStructureOCR(page rawdoc.Page, region docmodel.BBox, charErrorRate float64, seed int64) *docmodel.TableData {
	td := tableStructure(page, region)
	if charErrorRate > 0 {
		for i := range td.Cells {
			td.Cells[i].Text = corruptText(td.Cells[i].Text, charErrorRate, seed)
		}
	}
	return td
}

func tableStructure(page rawdoc.Page, region docmodel.BBox) *docmodel.TableData {
	// Pad the region generously: the detector's box is jittered
	// proportionally to its size, and boundary rules sit exactly on the
	// true table edge. The model then re-localizes to the rule grid it
	// finds, the way a table-structure model re-anchors on the cropped
	// image's visible lines.
	padX := 14.0
	if p := 0.08 * region.Width(); p > padX {
		padX = p
	}
	padY := 14.0
	if p := 0.08 * region.Height(); p > padY {
		padY = p
	}
	pad := docmodel.BBox{X0: region.X0 - padX, Y0: region.Y0 - padY, X1: region.X1 + padX, Y1: region.Y1 + padY}
	var hLines, vLines []float64
	for _, r := range page.Rules {
		if pad.Intersect(r.Box).Empty() {
			continue
		}
		if r.Box.Width() > r.Box.Height() {
			hLines = append(hLines, (r.Box.Y0+r.Box.Y1)/2)
		} else {
			vLines = append(vLines, (r.Box.X0+r.Box.X1)/2)
		}
	}
	hLines = dedupeSorted(hLines, 2)
	vLines = dedupeSorted(vLines, 2)

	if len(hLines) >= 2 && len(vLines) >= 2 {
		// Re-anchor run collection on the recovered grid bounds.
		grid := docmodel.BBox{
			X0: vLines[0] - 1, Y0: hLines[0] - 1,
			X1: vLines[len(vLines)-1] + 1, Y1: hLines[len(hLines)-1] + 1,
		}
		var runs []rawdoc.TextRun
		for _, run := range page.Runs {
			if grid.Contains(run.Box.CenterX(), run.Box.CenterY()) {
				runs = append(runs, run)
			}
		}
		return gridFromRules(hLines, vLines, runs)
	}
	var runs []rawdoc.TextRun
	for _, run := range page.Runs {
		if region.Contains(run.Box.CenterX(), run.Box.CenterY()) {
			runs = append(runs, run)
		}
	}
	return gridFromRuns(runs)
}

func dedupeSorted(vals []float64, tol float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	out := vals[:1]
	for _, v := range vals[1:] {
		if v-out[len(out)-1] > tol {
			out = append(out, v)
		}
	}
	return out
}

// gridFromRules builds the cell grid from detected boundary lines.
func gridFromRules(hLines, vLines []float64, runs []rawdoc.TextRun) *docmodel.TableData {
	nRows, nCols := len(hLines)-1, len(vLines)-1
	td := &docmodel.TableData{NumRows: nRows, NumCols: nCols}
	cellText := make([][]strings.Builder, nRows)
	for r := range cellText {
		cellText[r] = make([]strings.Builder, nCols)
	}
	locate := func(v float64, bounds []float64) int {
		for i := 0; i+1 < len(bounds); i++ {
			if v >= bounds[i] && v < bounds[i+1] {
				return i
			}
		}
		return -1
	}
	// Bold runs in the first row mark a header.
	headerRow := false
	for _, run := range runs {
		r := locate(run.Box.CenterY(), hLines)
		c := locate(run.Box.CenterX(), vLines)
		if r < 0 || c < 0 {
			continue
		}
		if r == 0 && run.Font.Bold {
			headerRow = true
		}
		sb := &cellText[r][c]
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(run.Text)
	}
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			td.Cells = append(td.Cells, docmodel.TableCell{
				Row: r, Col: c,
				Text:   cellText[r][c].String(),
				Header: headerRow && r == 0,
				Box: docmodel.BBox{
					X0: vLines[c], Y0: hLines[r],
					X1: vLines[c+1], Y1: hLines[r+1],
				},
			})
		}
	}
	return td
}

// gridFromRuns infers a grid for borderless tables by clustering run
// positions into row bands and column bands.
func gridFromRuns(runs []rawdoc.TextRun) *docmodel.TableData {
	if len(runs) == 0 {
		return &docmodel.TableData{}
	}
	var ys, xs []float64
	for _, r := range runs {
		ys = append(ys, r.Box.Y0)
		xs = append(xs, r.Box.X0)
	}
	rows := clusterValues(ys, 4)
	cols := clusterValues(xs, 12)
	td := &docmodel.TableData{NumRows: len(rows), NumCols: len(cols)}
	assign := func(v float64, centers []float64) int {
		best, bestD := 0, math.Inf(1)
		for i, c := range centers {
			if d := math.Abs(v - c); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	cells := map[[2]int]*docmodel.TableCell{}
	for _, run := range runs {
		r, c := assign(run.Box.Y0, rows), assign(run.Box.X0, cols)
		key := [2]int{r, c}
		if cell, ok := cells[key]; ok {
			cell.Text += " " + run.Text
			cell.Box = cell.Box.Union(run.Box)
		} else {
			cells[key] = &docmodel.TableCell{Row: r, Col: c, Text: run.Text, Box: run.Box}
		}
	}
	keys := make([][2]int, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		td.Cells = append(td.Cells, *cells[k])
	}
	return td
}

// clusterValues 1-D clusters sorted values with the given gap tolerance
// and returns cluster centers.
func clusterValues(vals []float64, tol float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var centers []float64
	start, sum, n := sorted[0], sorted[0], 1.0
	last := sorted[0]
	_ = start
	for _, v := range sorted[1:] {
		if v-last > tol {
			centers = append(centers, sum/n)
			sum, n = 0, 0
		}
		sum += v
		n++
		last = v
	}
	centers = append(centers, sum/n)
	return centers
}
