package core

import (
	"context"
	"runtime"
	"testing"

	"aryn/internal/index"
	"aryn/internal/ntsb"
)

// liveHeap is the heap still reachable after a collection; after two, since
// what a sync.Pool held survives the first as the pool's victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkStoreFootprint ingests the 100-accident corpus 42 and reports
// what the store keeps alive once the system around it is gone: per stored
// report (heap_bytes/doc: properties and the text view's elements) and per
// indexed chunk (heap_bytes/chunk: vector, text and postings). The split is
// taken by copying the reports into a store of their own and dropping the
// full one. `make bench` prints both in every CI log; docs/operations.md
// sizes a deployment from them.
func BenchmarkStoreFootprint(b *testing.B) {
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		base := liveHeap()
		sys := New(Config{Seed: 7, Parallelism: 4})
		if _, err := sys.Ingest(context.Background(), blobs); err != nil {
			b.Fatal(err)
		}
		store := sys.Store
		sys = nil
		whole := liveHeap() - base

		nDocs, nChunks := store.NumDocs(), store.NumChunks()
		docs := index.NewStore()
		for _, d := range store.Documents() {
			if err := docs.PutDocument(d); err != nil {
				b.Fatal(err)
			}
		}
		store = nil
		docsOnly := liveHeap() - base
		runtime.KeepAlive(docs)

		b.ReportMetric(float64(docsOnly)/float64(nDocs), "heap_bytes/doc")
		b.ReportMetric(float64(whole-docsOnly)/float64(nChunks), "heap_bytes/chunk")
	}
	runtime.KeepAlive(blobs) // or the last iteration's base holds them and its readings do not
}

// BenchmarkIngestDispatches ingests the 100-accident corpus 42 and reports
// how many upstream dispatches the ingest made and how many requests each
// carried on average. The ETL stage groups its own cache misses, so the
// count is a number that repeats (⌈103/8⌉ = 13); `make bench` prints it in
// every CI log.
func BenchmarkIngestDispatches(b *testing.B) {
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		stats, err := New(Config{Seed: 7, Parallelism: 8}).Ingest(context.Background(), blobs)
		if err != nil {
			b.Fatal(err)
		}
		batch := stats.LLM.Batch
		b.ReportMetric(float64(batch.Batches), "dispatches")
		b.ReportMetric(float64(batch.Requests)/float64(batch.Batches), "requests/dispatch")
	}
}
