package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aryn/internal/randsrc"
)

// lehmerM is the modulus of math/rand's seeding steps: seeds at its
// multiples and edges take the seeding's special cases.
const lehmerM = 1<<31 - 1

// sourceDraws is how many draws a seed is compared over: past the 607
// words of state, so the generator's feedback is compared too.
const sourceDraws = 1100

// checkSource compares the first sourceDraws draws of the repo source
// against math/rand's for seed. The comparison holds on amd64 only:
// elsewhere math/rand's own rare-path lines fuse multiply-adds, which the
// port rounds (ROADMAP item 5).
func checkSource(t *testing.T, s *randsrc.Source, seed int64) {
	t.Helper()
	s.Seed(seed)
	ref := rand.New(rand.NewSource(seed))
	var draws [sourceDraws]float64
	randsrc.Fill(s, draws[:])
	for i, got := range draws {
		if want := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d, draw %d: %v, math/rand %v", seed, i, got, want)
		}
	}
}

func skipOffAmd64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math/rand fuses multiply-adds on %s, the port does not: compared on amd64 only (ROADMAP item 5)", runtime.GOARCH)
	}
}

// fnvSeed is the seed a token's direction draws from: seed XOR the
// token's 64-bit FNV-1a, computed by hash/fnv.
func fnvSeed(seed int64, tok string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tok))
	return seed ^ int64(h.Sum64())
}

// TestDirectionSourceMatchesMathRand holds the source to math/rand bit
// for bit over 24,000 seeds: the small ones, both edges of the Lehmer
// modulus and of int64, token seeds as Embed makes them, and random ones.
func TestDirectionSourceMatchesMathRand(t *testing.T) {
	skipOffAmd64(t)
	var seeds []int64
	for d := int64(-1000); d < 1000; d++ {
		seeds = append(seeds, d, lehmerM+d, -lehmerM+d, math.MaxInt64-d, math.MinInt64+d+1000)
	}
	pick := rand.New(rand.NewSource(1))
	for len(seeds) < 24000 {
		seeds = append(seeds, fnvSeed(7, string(rune('a'+pick.Intn(26)))+string(rune('a'+pick.Intn(26)))), int64(pick.Uint64()))
	}
	var s randsrc.Source
	for _, seed := range seeds {
		checkSource(t, &s, seed)
	}
}

// FuzzDirectionSource: for any seed, the first 1,100 draws of the source
// equal rand.New(rand.NewSource(seed)).NormFloat64()'s bit for bit.
func FuzzDirectionSource(f *testing.F) {
	for _, seed := range []int64{0, lehmerM, -lehmerM, math.MinInt64,
		fnvSeed(0, "engine"), fnvSeed(7, "power"), fnvSeed(7, "n3x"), fnvSeed(42, "ntsb")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		skipOffAmd64(t)
		var s randsrc.Source
		checkSource(t, &s, seed)
	})
}

// referenceDirection is how a direction was made before the repo had its
// own generator: hash/fnv and math/rand, allocating both.
func referenceDirection(seed int64, tok string) []float32 {
	rng := rand.New(rand.NewSource(fnvSeed(seed, tok)))
	dir := make([]float32, Dim)
	for i := range dir {
		dir[i] = float32(rng.NormFloat64())
	}
	Normalize(dir)
	return dir
}

// TestDirectionMatchesReference: a generated direction, FNV-1a included,
// is the math/rand reference's to the bit.
func TestDirectionMatchesReference(t *testing.T) {
	skipOffAmd64(t)
	g := new(generator)
	for _, tok := range []string{"", "engine", "power", "n3x", "ßtrüb", "era21la0042"} {
		want := referenceDirection(7, tok)
		g.direction(7, tok, g.row[:])
		for i, v := range want {
			if math.Float32bits(g.row[i]) != math.Float32bits(v) {
				t.Fatalf("token %q, component %d: %v, reference %v", tok, i, g.row[i], v)
			}
		}
	}
}

var benchTokens = []string{"engine", "power", "landing", "n12345x", "era21la0042", "substantial"}

// BenchmarkTokenDirection prints what one direction a miss generates
// costs: the repo generator with its pooled scratch, and math/rand, the
// reference it reproduces.
func BenchmarkTokenDirection(b *testing.B) {
	b.Run("generator", func(b *testing.B) {
		b.ReportAllocs()
		g := new(generator)
		for i := 0; b.Loop(); i++ {
			g.direction(7, benchTokens[i%len(benchTokens)], g.row[:])
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			referenceDirection(7, benchTokens[i%len(benchTokens)])
		}
	})
}
