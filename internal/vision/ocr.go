package vision

import (
	"hash/fnv"
	"sort"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/randsrc"
	"aryn/internal/rawdoc"
)

// ExtractTextExcluding reads the text inside a detected region in reading
// order (top-down, then left-right). With charErrorRate == 0 it behaves
// like direct extraction from the file format (PDFMiner, §4); a positive
// rate simulates OCR on scanned pages (EasyOCR/PaddleOCR) with
// character-level substitutions. Runs whose centers fall inside any
// exclude box (detected table grids) belong to that structure and are not
// re-extracted as free text, even when a jittered text box overlaps them.
func ExtractTextExcluding(page rawdoc.Page, region docmodel.BBox, exclude []docmodel.BBox, charErrorRate float64, seed int64) string {
	var runs []rawdoc.TextRun
	for _, r := range page.Runs {
		cx, cy := r.Box.CenterX(), r.Box.CenterY()
		if !region.Contains(cx, cy) {
			continue
		}
		claimed := false
		for _, ex := range exclude {
			if ex.Contains(cx, cy) {
				claimed = true
				break
			}
		}
		if !claimed {
			runs = append(runs, r)
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Box.Y0 != runs[j].Box.Y0 {
			return runs[i].Box.Y0 < runs[j].Box.Y0
		}
		return runs[i].Box.X0 < runs[j].Box.X0
	})
	parts := make([]string, len(runs))
	for i, r := range runs {
		parts[i] = r.Text
	}
	text := strings.Join(parts, " ")
	if charErrorRate <= 0 || text == "" {
		return text
	}
	return corruptText(text, charErrorRate, seed)
}

// ocrConfusions are visually plausible character substitutions.
var ocrConfusions = map[rune][]rune{
	'0': {'O', 'o'}, 'O': {'0'}, '1': {'l', 'I'}, 'l': {'1', 'I'},
	'I': {'l', '1'}, '5': {'S'}, 'S': {'5'}, '8': {'B'}, 'B': {'8'},
	'm': {'n'}, 'n': {'m', 'r'}, 'e': {'c'}, 'c': {'e'}, 'a': {'o'},
	'u': {'v'}, 'v': {'u'},
}

// corruptText substitutes characters at the given rate with OCR-style
// confusions, deterministically per (text, seed).
func corruptText(text string, rate float64, seed int64) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	rng := randsrc.New(seed ^ int64(h.Sum64()))
	runes := []rune(text)
	for i, r := range runes {
		if rng.Float64() >= rate {
			continue
		}
		if subs, ok := ocrConfusions[r]; ok {
			runes[i] = subs[rng.Intn(len(subs))]
		}
	}
	return string(runes)
}

// SummarizeImage produces the caption a multi-modal model would generate
// for a picture region (§4: image summarization). The rawdoc format
// carries the latent scene description the renderer drew from; the
// summarizer phrases it as a caption.
func SummarizeImage(img *rawdoc.ImageBlob) string {
	if img == nil || img.Desc == "" {
		return "an unlabeled figure"
	}
	desc := strings.TrimSpace(img.Desc)
	low := strings.ToLower(desc)
	switch {
	case strings.HasPrefix(low, "photograph"), strings.HasPrefix(low, "photo"):
		return desc
	case strings.HasPrefix(low, "map"), strings.HasPrefix(low, "chart"), strings.HasPrefix(low, "diagram"):
		return desc
	default:
		return "photograph showing " + desc
	}
}
