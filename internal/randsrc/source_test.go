package randsrc

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// draws is how many values a seed is compared over: past the 607 words
// of state, so the generator's feedback is compared too.
const draws = 700

// intnBounds are the bounds Intn draws under in turn: powers of two and
// not, and one past int32, which takes Int63n's path.
var intnBounds = []int{1, 2, 3, 7, 26, 1000, 1 << 30, 1<<31 + 5}

// checkSeed draws, from a source seeded with seed and from math/rand's,
// the same sequence of Int63, Uint64, Float64, Intn and NormFloat64
// calls, and fails on the first that differs in a bit.
func checkSeed(t *testing.T, s *Source, seed int64) {
	t.Helper()
	s.Seed(seed)
	got, want := rand.New(s), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		var g, w uint64
		switch i % 5 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			n := intnBounds[i%len(intnBounds)]
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		case 4:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		}
		if g != w {
			t.Fatalf("seed %d, draw %d (kind %d): %#x, math/rand %#x", seed, i, i%5, g, w)
		}
	}
	// Fill is NormFloat64, drawn without the interface.
	s.Seed(seed)
	ref := rand.New(rand.NewSource(seed))
	var norms [draws]float64
	Fill(s, norms[:])
	for i, g := range norms {
		if w := ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d, Fill draw %d: %v, math/rand %v", seed, i, g, w)
		}
	}
}

func skipOffAmd64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math/rand fuses multiply-adds on %s, the port does not: compared on amd64 only (ROADMAP item 5)", runtime.GOARCH)
	}
}

// fnvSeed is seed XOR the token's 64-bit FNV-1a, as the embedder and the
// Sim key their generators.
func fnvSeed(seed int64, tok string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tok))
	return seed ^ int64(h.Sum64())
}

// TestSourceMatchesMathRand holds Source to math/rand bit for bit over
// 24,000 seeds: the small ones, both edges of the Lehmer modulus and of
// int64, FNV-keyed ones and random ones.
func TestSourceMatchesMathRand(t *testing.T) {
	skipOffAmd64(t)
	var seeds []int64
	for d := int64(-1000); d < 1000; d++ {
		seeds = append(seeds, d, lehmerM+d, -lehmerM+d, math.MaxInt64-d, math.MinInt64+d+1000)
	}
	pick := rand.New(rand.NewSource(1))
	for len(seeds) < 24000 {
		seeds = append(seeds, fnvSeed(7, string(rune('a'+pick.Intn(26)))+string(rune('a'+pick.Intn(26)))), int64(pick.Uint64()))
	}
	var s Source
	for _, seed := range seeds {
		checkSeed(t, &s, seed)
	}
}

// TestNewMatchesMathRand: New(seed) is rand.New(rand.NewSource(seed)).
func TestNewMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, lehmerM, math.MinInt64, fnvSeed(42, "era21la0042")} {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// FuzzSource: for any seed, a reseeded Source draws math/rand's values.
func FuzzSource(f *testing.F) {
	for _, seed := range []int64{0, lehmerM, -lehmerM, math.MinInt64, math.MaxInt64,
		fnvSeed(0, "engine"), fnvSeed(7, "power"), fnvSeed(42, "ntsb")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		skipOffAmd64(t)
		var s Source
		s.Seed(lehmerM - 1) // a used source reseeds cleanly
		s.Uint64()
		checkSeed(t, &s, seed)
	})
}

// BenchmarkSeed prints what seeding a generator costs: a reseeded Source
// against math/rand's NewSource, which allocates its state too.
func BenchmarkSeed(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		b.ReportAllocs()
		var s Source
		for i := int64(0); b.Loop(); i++ {
			s.Seed(i)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := int64(0); b.Loop(); i++ {
			rand.NewSource(i)
		}
	})
}
