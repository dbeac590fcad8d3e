//go:build !amd64

package simd

const available = false

func dot([]float64, []int16) int64 { panic("simd: no kernel on this GOARCH") }

func axpy([]float32, float32, []float32) { panic("simd: no kernel on this GOARCH") }
