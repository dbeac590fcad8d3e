// Package embed provides the deterministic text-embedding model used in
// place of all-MiniLM-L6-v2. Each token hashes to a seeded random
// direction in R^d; a text embeds as the L2-normalized sum of its token
// directions (with sub-linear term weighting). Texts sharing vocabulary
// land near each other under cosine similarity — the property vector
// retrieval needs — and identical inputs embed identically across runs.
//
// Paper counterpart: the embedding model of the §6.1 vector-search path
// (the paper uses MiniLM embeddings indexed in OpenSearch).
//
// On CPUs with AVX2 and FMA a token direction accumulates into the vector
// through simd.Axpy, eight lanes at a time. It multiplies, rounds to
// float32, then adds — deliberately not fused: that is what amd64 compiles
// the Go loop vec[i] += w*v to, and the embedding golden pins those bytes.
//
// Concurrency: Hash memoizes per-token directions in a bounded cache
// behind an internal lock, so Embed is safe (and fast) to call from
// concurrent pipeline workers.
package embed
