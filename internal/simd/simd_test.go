package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func requireKernels(t testing.TB) {
	t.Helper()
	if !Available() {
		t.Skip("this CPU runs the Go loops, not the kernels")
	}
}

// dotRef is the integer loop the kernel must equal.
func dotRef(q []float64, codes []int16) int64 {
	var sum int64
	for j, x := range q {
		sum += int64(x) * int64(codes[j])
	}
	return sum
}

func checkDot(t *testing.T, name string, q []float64, codes []int16) {
	t.Helper()
	if got, want := Dot(q, codes), dotRef(q, codes); got != want {
		t.Fatalf("%s (d=%d): kernel %d, int64 loop %d", name, len(q), got, want)
	}
}

// TestDotMatchesIntegerLoop holds the kernel to the int64 loop at the
// magnitudes the exactness argument has to cover, and on random rows.
func TestDotMatchesIntegerLoop(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{16, 1024, DotMaxLen} {
		q, codes := make([]float64, d), make([]int16, d)

		// One component carries the whole unit query, at the query
		// scale and at the bound, against the extreme codes.
		for _, peak := range []float64{1 << 30, DotQueryMax} {
			for _, c := range []int16{math.MaxInt16, -math.MaxInt16, math.MinInt16} {
				clear(q)
				q[d/3] = peak
				for j := range codes {
					codes[j] = c
				}
				checkDot(t, "one-hot", q, codes)
				q[d/3] = -peak
				checkDot(t, "one-hot negative", q, codes)
			}
		}

		// Equal magnitudes, codes matching every sign: the largest sum a
		// unit query reaches, 2³⁰·√d·32,767.
		mag := math.Round((1 << 30) / math.Sqrt(float64(d)))
		for j := range q {
			q[j] = mag
			codes[j] = math.MaxInt16
			if rng.Intn(2) == 0 {
				q[j], codes[j] = -mag, -math.MaxInt16
			}
		}
		checkDot(t, "sign-matched", q, codes)
		if got, want := Dot(q, codes), int64(mag)*int64(d)*math.MaxInt16; got != want {
			t.Fatalf("sign-matched (d=%d): %d, want %d", d, got, want)
		}

		for trial := 0; trial < 20; trial++ {
			for j := range q {
				q[j] = float64(rng.Int63n(1<<31) - 1<<30)
				codes[j] = int16(rng.Intn(1<<16) - 1<<15)
			}
			if s := sumAbs(q); s > DotQueryMax {
				scaleInto(q, s)
			}
			checkDot(t, "random", q, codes)
		}
	}
}

func sumAbs(q []float64) float64 {
	var s float64
	for _, x := range q {
		s += math.Abs(x)
	}
	return s
}

// scaleInto shrinks integer components summing to s in magnitude until the
// sum is within DotQueryMax, keeping them integers.
func scaleInto(q []float64, s float64) {
	k := math.Floor(s/DotQueryMax) + 1
	for j := range q {
		q[j] = math.Trunc(q[j] / k)
	}
}

func TestDotRejectsRowsItCannotTake(t *testing.T) {
	for _, c := range []struct {
		q, codes int
	}{{0, 0}, {15, 15}, {16, 32}, {DotMaxLen + 16, DotMaxLen + 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dot over %d and %d elements did not panic", c.q, c.codes)
				}
			}()
			Dot(make([]float64, c.q), make([]int16, c.codes))
		}()
	}
	if DotFits(0) || DotFits(24) || !DotFits(16) || !DotFits(DotMaxLen) || DotFits(DotMaxLen+16) {
		t.Error("DotFits draws the wrong line")
	}
}

// TestAxpyMatchesGoLoop holds the kernel to dst[i] += w*src[i] bit for bit,
// for every tail length and across magnitudes where rounding the product
// first matters.
func TestAxpyMatchesGoLoop(t *testing.T) {
	requireKernels(t)
	rng := rand.New(rand.NewSource(2))
	ws := []float32{0, 1, -1, 0.35, float32(0.35 * 1.6931472), 1e-30, 3e37, float32(math.Inf(1))}
	for n := 0; n <= 40; n++ {
		for _, w := range append(ws, float32(rng.NormFloat64())) {
			dst, src := make([]float32, n), make([]float32, n+3)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
			}
			for i := range dst {
				dst[i] = float32(rng.NormFloat64())
			}
			want := append([]float32(nil), dst...)
			for i := range want {
				want[i] += w * src[i]
			}
			Axpy(dst, w, src)
			for i := range dst {
				if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n=%d w=%v element %d: kernel %v, Go loop %v", n, w, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestAxpyRejectsShortSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Axpy with a short source did not panic")
		}
	}()
	Axpy(make([]float32, 9), 1, make([]float32, 8))
}

// FuzzDotKernel: any query inside the bound — integers with Σ|q| at most
// DotQueryMax, however concentrated — against any codes, and the kernel
// equals the int64 loop.
func FuzzDotKernel(f *testing.F) {
	f.Add([]byte{1}, []byte{0xff, 0x7f})
	f.Add([]byte{0, 0, 0, 0x20, 0, 0, 0, 0}, []byte{0, 0x80})
	f.Add(make([]byte, 64), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, qb, cb []byte) {
		requireKernels(t)
		d := min(max(16, len(cb)/2/16*16), DotMaxLen)
		q, codes := make([]float64, d), make([]int16, d)
		for j := range codes {
			if 2*j+2 <= len(cb) {
				codes[j] = int16(binary.LittleEndian.Uint16(cb[2*j:]))
			}
		}
		for j := range q {
			if 8*j+8 > len(qb) {
				break
			}
			v := int64(binary.LittleEndian.Uint64(qb[8*j:])) % (DotQueryMax + 1)
			q[j] = float64(v)
		}
		if s := sumAbs(q); s > DotQueryMax {
			scaleInto(q, s)
		}
		checkDot(t, "fuzz", q, codes)
	})
}
