package randsrc

import (
	"math"
	"math/rand"
)

const (
	rngLen  = 607 // words of additive-generator state
	rngTap  = 273 // the generator's tap: x[n] = x[n-607] + x[n-273]
	lehmerA = 48271
	lehmerM = 1<<31 - 1

	// rn is the ziggurat's base-strip edge (math/rand's rn).
	rn = 3.442619855899
)

// mulmod returns x·y mod 2³¹−1 for x, y < 2³¹ without a division: the
// product's high bits fold onto its low ones, since 2³¹ ≡ 1. Neither
// operand is ever a multiple of the prime, so neither is the product, and
// one conditional subtraction finishes the reduction.
func mulmod(x, y uint64) uint64 {
	p := x * y
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// lehmerPow returns lehmerA^n mod 2³¹−1.
func lehmerPow(n int) uint64 {
	r := uint64(1)
	for ; n > 0; n-- {
		r = mulmod(r, lehmerA)
	}
	return r
}

// math/rand's seeding walks x → 48271·x mod (2³¹−1) from the seed: 20
// steps to warm up, then three per state word, word i taking steps
// 21+3i, 22+3i and 23+3i. Lane k of the four starts at step 21+3k and
// jumps 12 steps at a time, so word i is lane i%4's.
var (
	lehmerStep1, lehmerStep2, lehmerJump = lehmerPow(1), lehmerPow(2), lehmerPow(12)
	lehmerLanes                          = [4]uint64{lehmerPow(21), lehmerPow(24), lehmerPow(27), lehmerPow(30)}
)

// rngCooked is math/rand's seeding table: word i of a seeded state is the
// Lehmer word XOR rngCooked[i]. It is recovered, not copied: the first 607
// outputs of rand.NewSource(1) give back its seeded state by running the
// additive generator backwards, and the state XOR seed 1's Lehmer words
// is the table.
var rngCooked = recoverCooked()

func recoverCooked() *[rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	// Output k wrote word (333−k) mod 607 as that word plus word 606−k,
	// which output k−273 had already overwritten when k ≥ 273 and which
	// was still the seeded word (rewritten later, by output k+334) when
	// k < 273. Walking k downwards sees each of those before it is needed.
	var state [rngLen]uint64
	for k := rngLen - 1; k >= 0; k-- {
		feed := (2*rngLen - rngTap - 1 - k) % rngLen
		if k >= rngTap {
			state[feed] = out[k] - out[k-rngTap]
		} else {
			state[feed] = out[k] - state[rngLen-1-k]
		}
	}
	var lehmer Source
	lehmer.seedWords(1, &[rngLen]int64{})
	cooked := new([rngLen]int64)
	for i := range cooked {
		cooked[i] = int64(state[i]) ^ lehmer.vec[i]
	}
	return cooked
}

// Source is math/rand's additive lagged-Fibonacci generator (its
// rngSource), seeded without a division: rand.New(s) draws, method for
// method, what rand.New(rand.NewSource(seed)) draws after s.Seed(seed).
// The zero Source is not seeded; a Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns rand.New(rand.NewSource(seed))'s generator, its source
// seeded here.
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed is rngSource.Seed.
func (s *Source) Seed(seed int64) { s.seedWords(seed, rngCooked) }

// seedWords seeds s as math/rand does, with cooked as the seeding table.
func (s *Source) seedWords(seed int64, cooked *[rngLen]int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	a, b, c, d := mulmod(x, lehmerLanes[0]), mulmod(x, lehmerLanes[1]), mulmod(x, lehmerLanes[2]), mulmod(x, lehmerLanes[3])
	i := 0
	for ; i+4 <= rngLen; i += 4 {
		s.vec[i] = lehmerWord(a) ^ cooked[i]
		s.vec[i+1] = lehmerWord(b) ^ cooked[i+1]
		s.vec[i+2] = lehmerWord(c) ^ cooked[i+2]
		s.vec[i+3] = lehmerWord(d) ^ cooked[i+3]
		a, b, c, d = mulmod(a, lehmerJump), mulmod(b, lehmerJump), mulmod(c, lehmerJump), mulmod(d, lehmerJump)
	}
	// 607 = 4·151 + 3: lanes a, b and c make one word more.
	s.vec[i] = lehmerWord(a) ^ cooked[i]
	s.vec[i+1] = lehmerWord(b) ^ cooked[i+1]
	s.vec[i+2] = lehmerWord(c) ^ cooked[i+2]
}

// lehmerWord is the state word math/rand builds from Lehmer value x and
// the two steps after it.
func lehmerWord(x uint64) int64 {
	return int64(x)<<40 ^ int64(mulmod(x, lehmerStep1))<<20 ^ int64(mulmod(x, lehmerStep2))
}

// Uint64 is rngSource.Uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *Source) Int63() int64 { return int64(s.Uint64() & math.MaxInt64) }

// float64 is Rand.Float64.
func (s *Source) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Fill sets dst to the source's next len(dst) Rand.NormFloat64 draws,
// each converted to T. It is Marsaglia and Tsang's ziggurat over
// math/rand's tables, with its common case — better than 99% of draws,
// one int63 and a table compare — inlined here.
func Fill[T float32 | float64](s *Source, dst []T) {
	tap, feed := s.tap, s.feed
	for k := range dst {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := s.vec[feed] + s.vec[tap]
		s.vec[feed] = x
		j := int32(uint32((x & math.MaxInt64) >> 31)) // possibly negative
		if i := j & 0x7F; absInt32(j) < kn[i] {
			dst[k] = T(float64(j) * float64(wn[i]))
			continue
		}
		s.tap, s.feed = tap, feed
		dst[k] = T(s.ziggurat(j))
		tap, feed = s.tap, s.feed
	}
	s.tap, s.feed = tap, feed
}

// ziggurat is NormFloat64's loop from a first j already drawn. Each
// product on its rare paths is rounded by an explicit conversion, so that
// no GOARCH fuses it into the add or compare beside it; amd64, which never
// fuses, computes the same bits either way.
func (s *Source) ziggurat(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			// The base strip's tail.
			for {
				x = float64(-math.Log(s.float64()) * (1.0 / rn))
				y := -math.Log(s.float64())
				if y+y >= float64(x*x) {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(float32(s.float64())*(fn[i-1]-fn[i])) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(uint32(s.Int63() >> 31))
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// The ziggurat's tables, copied from Go's math/rand/normal.go (BSD-style
// license, Copyright 2009 The Go Authors).

var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
var fn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}
