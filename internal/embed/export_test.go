package embed

import "aryn/internal/simd"

// SetKernel turns the simd.Axpy accumulation on (where the CPU has it) or
// off, for the external tests that hold both paths to the golden bytes, and
// returns what restores the setting.
func SetKernel(on bool) (restore func()) {
	was := kernel
	kernel = on && simd.Available()
	return func() { kernel = was }
}

// Generations is how many directions h has generated.
func Generations(h *Hash) int64 { return h.made.Load() }

// Lookups is how many token directions embedding text reads.
func Lookups(text string) (n int) {
	eachDirection(text, func(string, float32) { n++ })
	return n
}
