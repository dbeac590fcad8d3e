package embed_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/embed"
	"aryn/internal/ntsb"
)

// chunkTexts are the chunk texts of ntsb.GenerateCorpus(reports, 42): its
// 120-token merged chunks, as ingest embeds them, and then, with elements,
// its unmerged elements.
func chunkTexts(tb testing.TB, reports int, elements bool) []string {
	tb.Helper()
	corpus, err := ntsb.GenerateCorpus(reports, 42)
	if err != nil {
		tb.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		tb.Fatal(err)
	}
	exploded := docset.ReadBinary(docset.NewContext(), blobs).Partition(docparse.New()).Explode()
	sets := []*docset.DocSet{exploded.MergeChunks(120)}
	if elements {
		sets = append(sets, exploded)
	}
	var texts []string
	for _, ds := range sets {
		chunks, err := ds.TakeAll(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range chunks {
			texts = append(texts, c.Text)
		}
	}
	return texts
}

func vectorHash(vec []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vec {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestEmbedKernelMatchesGoLoop: Embed with simd.Axpy and with the Go loop
// gives the same bits for every golden chunk text, and both give the
// hashes internal/index/testdata/embed_golden.txt pins.
func TestEmbedKernelMatchesGoLoop(t *testing.T) {
	raw, err := os.ReadFile("../index/testdata/embed_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(string(raw), "\n")
	texts := chunkTexts(t, 30, true) // internal/index's embed golden, in its order
	if len(texts) < 200 || len(texts) > len(golden) {
		t.Fatalf("%d chunk texts against %d golden lines", len(texts), len(golden))
	}
	embedAll := func(kernel bool) [][]float32 {
		defer embed.SetKernel(kernel)()
		em := embed.NewHash(7)
		out := make([][]float32, len(texts))
		for i, text := range texts {
			out[i] = em.Embed(text)
			if line := fmt.Sprintf("%03d %016x", i, vectorHash(out[i])); line != golden[i] {
				t.Fatalf("kernel %v, text %d: %s, golden %s", kernel, i, line, golden[i])
			}
		}
		return out
	}
	withKernel, withLoop := embedAll(true), embedAll(false)
	for i := range texts {
		for j := range withKernel[i] {
			if math.Float32bits(withKernel[i][j]) != math.Float32bits(withLoop[i][j]) {
				t.Fatalf("text %d component %d: kernel %v, Go loop %v", i, j, withKernel[i][j], withLoop[i][j])
			}
		}
	}
}

// BenchmarkEmbedCorpus embeds the chunk texts of corpus 42's 100 reports
// with a fresh embedder, as ingest does, and prints how many directions
// that generates and what share of direction lookups the cache answers.
func BenchmarkEmbedCorpus(b *testing.B) {
	texts := chunkTexts(b, 100, false)
	lookups := 0
	for _, text := range texts {
		lookups += embed.Lookups(text)
	}
	var made int64
	for b.Loop() {
		em := embed.NewHash(7)
		for _, text := range texts {
			em.Embed(text)
		}
		made = embed.Generations(em)
	}
	b.ReportMetric(float64(made), "generations/op")
	b.ReportMetric(1-float64(made)/float64(lookups), "hit_ratio")
}
