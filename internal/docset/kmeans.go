package docset

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
	"aryn/internal/llm"
)

// LLMCluster groups documents into k clusters by semantic similarity of
// the given fields (falling back to full text when fields is empty) — the
// llmCluster logical operator (§6.1). Each document gains properties
// "cluster_id" (0..k-1) and "cluster_label" (the cluster's most
// characteristic content tokens). Clustering is k-means over embeddings
// with seeded initialization, so results are reproducible.
func (ds *DocSet) LLMCluster(k int, fields []string, seed int64) *DocSet {
	name := fmt.Sprintf("llmCluster[k=%d, fields=%s]", k, strings.Join(fields, ","))
	return ds.with(stageSpec{
		name:    name,
		kind:    barrierKind,
		mutates: true, // assigns cluster_id / cluster_label properties
		barrierFn: func(ec *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			if k <= 0 {
				return nil, fmt.Errorf("llmCluster: k must be positive, got %d", k)
			}
			if len(docs) == 0 {
				return docs, nil
			}
			if k > len(docs) {
				k = len(docs)
			}
			texts := make([]string, len(docs))
			vecs := make([][]float32, len(docs))
			for i, d := range docs {
				texts[i] = clusterText(d, fields)
				vecs[i] = ec.Embedder.Embed(texts[i])
			}
			assign := kmeans(vecs, k, seed)
			labels := clusterLabels(texts, assign, k)
			for i, d := range docs {
				d.SetProperty("cluster_id", assign[i])
				d.SetProperty("cluster_label", labels[assign[i]])
			}
			return docs, nil
		},
	})
}

func clusterText(d *docmodel.Document, fields []string) string {
	if len(fields) == 0 {
		return d.TextContent()
	}
	parts := make([]string, 0, len(fields))
	for _, f := range fields {
		if v := d.Property(f); v != "" {
			parts = append(parts, v)
		}
	}
	if len(parts) == 0 {
		return d.TextContent()
	}
	return strings.Join(parts, " ")
}

// kmeans runs Lloyd's algorithm with k-means++-style seeded init and a
// fixed iteration budget, returning per-point cluster assignments.
func kmeans(vecs [][]float32, k int, seed int64) []int {
	n := len(vecs)
	rng := rand.New(rand.NewSource(seed))
	dim := len(vecs[0])

	// k-means++ init: first center uniform, rest distance-weighted.
	centers := make([][]float32, 0, k)
	centers = append(centers, append([]float32(nil), vecs[rng.Intn(n)]...))
	for len(centers) < k {
		weights := make([]float64, n)
		total := 0.0
		for i, v := range vecs {
			best := math2Inf()
			for _, c := range centers {
				if d := 1 - embed.Cosine(v, c); d < best {
					best = d
				}
			}
			weights[i] = float64(best * best)
			total += weights[i]
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, w := range weights {
				r -= w
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		centers = append(centers, append([]float32(nil), vecs[pick]...))
	}

	assign := make([]int, n)
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math2Inf()
			for ci, c := range centers {
				if d := 1 - embed.Cosine(v, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centers.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for ci := range sums {
			sums[ci] = make([]float64, dim)
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += float64(x)
			}
		}
		for ci := range centers {
			if counts[ci] == 0 {
				continue // empty cluster keeps its center
			}
			for j := range centers[ci] {
				centers[ci][j] = float32(sums[ci][j] / float64(counts[ci]))
			}
			embed.Normalize(centers[ci])
		}
	}
	return assign
}

func math2Inf() float64 { return 1e18 }

// clusterLabels derives a short label per cluster from its members' most
// frequent content tokens.
func clusterLabels(texts []string, assign []int, k int) []string {
	counts := make([]map[string]int, k)
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for i, t := range texts {
		for _, tok := range llm.ContentTokens(t) {
			counts[assign[i]][tok]++
		}
	}
	labels := make([]string, k)
	for ci, m := range counts {
		type tc struct {
			tok string
			n   int
		}
		all := make([]tc, 0, len(m))
		for t, n := range m {
			all = append(all, tc{t, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].tok < all[j].tok
		})
		top := make([]string, 0, 3)
		for _, e := range all {
			top = append(top, e.tok)
			if len(top) == 3 {
				break
			}
		}
		// A label outlives the texts its tokens were cut from
		// (llm.Tokenize): it keeps its own bytes.
		labels[ci] = strings.Clone(strings.Join(top, "/"))
	}
	return labels
}
