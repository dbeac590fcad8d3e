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
// A token's direction is the normalized first Dim draws of
// rand.New(rand.NewSource(seed ^ FNV-1a(token))).NormFloat64(), each
// rounded to float32. The package draws them with internal/randsrc's copy
// of that generator, bit for bit the same stream: math/rand's seeding is
// 1,841 division steps and an allocation per source, which a direction
// cache small enough to keep pays on every miss. FuzzDirectionSource holds
// the directions' draws to math/rand on amd64.
//
// On CPUs with AVX2 and FMA a token direction accumulates into the vector
// through simd.Axpy, eight lanes at a time. It multiplies, rounds to
// float32, then adds — deliberately not fused: that is what the Go loop
// does on every GOARCH (an explicit conversion rounds each product), and
// the embedding golden pins those bytes.
//
// Concurrency: Hash caches token directions in a fixed 2 MB slab of 512
// rows with CLOCK eviction behind an internal lock, so Embed is safe (and
// fast) to call from concurrent pipeline workers.
package embed
