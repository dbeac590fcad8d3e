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

// goldenChunkTexts are the chunk texts internal/index's embed golden pins,
// in its order: the 120-token merged chunks of ntsb.GenerateCorpus(30, 42),
// then its unmerged elements.
func goldenChunkTexts(t *testing.T) []string {
	t.Helper()
	corpus, err := ntsb.GenerateCorpus(30, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	exploded := docset.ReadBinary(docset.NewContext(), blobs).Partition(docparse.New()).Explode()
	var texts []string
	for _, ds := range []*docset.DocSet{exploded.MergeChunks(120), exploded} {
		chunks, err := ds.TakeAll(context.Background())
		if err != nil {
			t.Fatal(err)
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
	texts := goldenChunkTexts(t)
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
