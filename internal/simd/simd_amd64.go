package simd

var available = hasAVX2FMA()

// hasAVX2FMA is the start-up check: CPUID leaf 1 for FMA, AVX and OSXSAVE,
// XCR0 for XMM and YMM state the OS saves, CPUID leaf 7 for AVX2.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func dot(q []float64, codes []int16) int64

//go:noescape
func axpy(dst []float32, w float32, src []float32)
