package index

import "aryn/internal/simd"

// SetKernel turns the simd.Dot scan on (where the CPU has it) or off, for
// the external tests that hold both scans to the goldens, and returns what
// restores the setting.
func SetKernel(on bool) (restore func()) {
	was := kernel
	kernel = on && simd.Available()
	return func() { kernel = was }
}
