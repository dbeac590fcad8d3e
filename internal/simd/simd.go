package simd

// DotMaxLen is the longest row Dot takes. With |code| ≤ 32,768 and a unit
// query scaled to 2³⁰, Σ|q| ≤ 2³⁰·√DotMaxLen < DotQueryMax.
const DotMaxLen = 8192

// DotQueryMax bounds Σ|q[j]| for Dot to be exact: 32,768 · 2³⁷ = 2⁵², so no
// partial sum of products with int16 codes leaves float64's integers.
const DotQueryMax = 1 << 37

// DotFits reports whether Dot takes rows of length n: a positive multiple of
// 16, no longer than DotMaxLen.
func DotFits(n int) bool { return n > 0 && n%16 == 0 && n <= DotMaxLen }

// Available reports whether this process runs the kernels: amd64 with AVX2,
// FMA and OS-saved YMM state. Dot and Axpy must not be called otherwise.
func Available() bool { return available }

// Dot returns Σ q[j]·codes[j]. Every q[j] must be an integer and Σ|q[j]| at
// most DotQueryMax; then the result is exact. It panics unless the lengths
// are equal and DotFits.
func Dot(q []float64, codes []int16) int64 {
	if len(codes) != len(q) || !DotFits(len(q)) {
		panic("simd: Dot wants two rows of one length, a multiple of 16 up to 8,192")
	}
	return dot(q, codes)
}

// Axpy adds w·src[i] to dst[i] for every i of dst, rounding the product to
// float32 before the add, as the Go loop does. It panics if src is shorter
// than dst.
func Axpy(dst []float32, w float32, src []float32) {
	if len(src) < len(dst) {
		panic("simd: Axpy source shorter than destination")
	}
	if len(dst) > 0 {
		axpy(dst, w, src)
	}
}
