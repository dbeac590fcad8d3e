// Package randsrc is math/rand's generator, seeded at a fraction of its
// cost: the value stream of rand.New(rand.NewSource(seed)), bit for bit.
// math/rand allocates a 607-word additive generator per source and seeds
// it with 1,841 Lehmer steps, each a division. Here the Lehmer steps are
// multiplications in four independent lanes, and a Source is a plain
// value a caller may keep and reseed, so a generator per item (a token's
// direction, a model request's coin, a page's noise) costs little.
//
// Source implements rand.Source64, so rand.New(&src) draws every method of
// *rand.Rand as math/rand's own source would. Fill draws NormFloat64s
// without the interface call per number.
//
// TestSourceMatchesMathRand and FuzzSource hold it to math/rand on amd64
// (elsewhere math/rand's rare-path lines fuse multiply-adds that this
// package rounds; ROADMAP item 5).
//
// Concurrency: a Source is not safe for concurrent use; New returns a
// generator of its own per call.
package randsrc
