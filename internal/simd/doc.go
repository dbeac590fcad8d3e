// Package simd holds the two vector kernels retrieval spends its CPU in,
// as amd64 assembly: Dot, an exact integer dot product of a query held in
// float64 with a row of int16 codes (the exact kNN scan of
// internal/index), and Axpy, dst += w·src over float32 (the token
// accumulation of internal/embed's hashed embedder).
//
// Paper counterpart: none directly — it speeds up the stand-ins for
// OpenSearch's kNN scoring and the MiniLM encoder of the §6.1 retrieval
// path without changing a bit of what they return.
//
// The kernels need AVX2 and FMA, and an OS that saves YMM state; Available
// checks that once at start-up with CPUID and XGETBV. Callers keep their Go
// loops and take the kernel only when Available is true; on other CPUs and
// other GOARCHes the Go loops are the only path, with identical results:
//
//   - Dot converts each code to float64 and fuses multiply and add. Every
//     product and every partial sum, in any order, is an integer below
//     2⁵² when Σ|q| ≤ DotQueryMax, so float64 holds all of them exactly
//     and the result is the int64 sum to the bit.
//   - Axpy multiplies, rounds, then adds, deliberately without FMA: that
//     is what amd64 compiles dst[i] += w*src[i] to, lane by lane.
//
// Concurrency: the kernels keep no state; Available is fixed before main.
package simd
