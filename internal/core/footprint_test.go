package core

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
	"aryn/internal/resilience"
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
// indexed chunk (heap_bytes/chunk: vector, text and postings). `make bench`
// prints both in every CI log; docs/operations.md sizes a deployment from
// them.
func BenchmarkStoreFootprint(b *testing.B) {
	blobs := footprintBlobs(b)
	for b.Loop() {
		perDoc, perChunk := storeFootprint(b, blobs)
		b.ReportMetric(perDoc, "heap_bytes/doc")
		b.ReportMetric(perChunk, "heap_bytes/chunk")
	}
	runtime.KeepAlive(blobs) // or the last iteration's base holds them and its readings do not
}

// TestStoreFootprintPerReport bounds what a stored report of corpus 42
// keeps alive: its properties are one exact-size key-sorted row whose keys
// the store interns (≈ 5.6 KB a report in all; with the properties a
// map[string]any a report read 6,070–6,120 B). A process's first reading
// also counts what the process sets up once, ≈ 60 KB or ≈ 600 B a report,
// so the test takes the least of three (5,558–5,680 B over six processes).
func TestStoreFootprintPerReport(t *testing.T) {
	blobs := footprintBlobs(t)
	perDoc, perChunk := storeFootprint(t, blobs)
	for range 2 {
		d, c := storeFootprint(t, blobs)
		perDoc, perChunk = min(perDoc, d), min(perChunk, c)
	}
	runtime.KeepAlive(blobs)
	t.Logf("heap_bytes/doc %.0f, heap_bytes/chunk %.0f", perDoc, perChunk)
	if perDoc > 5750 {
		t.Errorf("a stored report keeps %.0f B alive, want ≤ 5,750", perDoc)
	}
}

func footprintBlobs(tb testing.TB) map[string][]byte {
	tb.Helper()
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		tb.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		tb.Fatal(err)
	}
	return blobs
}

// storeFootprint ingests blobs and returns the live heap the store keeps per
// stored report and per indexed chunk. The split is taken by copying the
// reports into a store of their own and dropping the full one.
func storeFootprint(tb testing.TB, blobs map[string][]byte) (perDoc, perChunk float64) {
	tb.Helper()
	base := liveHeap()
	sys := New(Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		tb.Fatal(err)
	}
	store := sys.Store
	sys = nil
	whole := liveHeap() - base

	nDocs, nChunks := store.NumDocs(), store.NumChunks()
	docs := index.NewStore()
	for _, d := range store.Documents() {
		if err := docs.PutDocument(d); err != nil {
			tb.Fatal(err)
		}
	}
	store = nil
	docsOnly := liveHeap() - base
	runtime.KeepAlive(docs)
	return float64(docsOnly) / float64(nDocs), float64(whole-docsOnly) / float64(nChunks)
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

// ingestPeak ingests blobs into a new system built from cfg and returns the
// highest live heap (/gc/heap/live:bytes, the heap the last collection
// marked) sampled every millisecond while the ingest ran, the live heap once
// it finished, with the system still reachable, and its wall time.
func ingestPeak(tb testing.TB, cfg Config, blobs map[string][]byte) (peak, finished uint64, wall time.Duration) {
	tb.Helper()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	liveHeap()
	done := make(chan struct{})
	sampled := make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var high uint64
		for {
			high = max(high, live())
			select {
			case <-tick.C:
			case <-done:
				sampled <- high
				return
			}
		}
	}()
	sys := New(cfg)
	stats, err := sys.Ingest(context.Background(), blobs)
	close(done)
	peak = <-sampled
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	finished = live()
	runtime.KeepAlive(sys)
	runtime.KeepAlive(blobs)
	return max(peak, finished), finished, stats.Wall
}

// TestIngestPeakDoesNotGrowWithUpload holds ingest to chunking each report
// as it flows: what the ingest holds above its finished state (the peak live
// heap less the live heap once done) must not grow with the upload. It
// ingests about 300 and 1,200 reports; a stage that held every chunk of the
// upload at once grew that excess about 4× between them.
func TestIngestPeakDoesNotGrowWithUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 1,500 reports")
	}
	excess := map[int]uint64{}
	for _, n := range []int{300, 1200} {
		corpus, err := ntsb.GenerateCorpus(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := corpus.Blobs()
		if err != nil {
			t.Fatal(err)
		}
		peak, finished, _ := ingestPeak(t, Config{Seed: 7, Parallelism: 8}, blobs)
		excess[n] = peak - finished
		t.Logf("%d reports: peak %.1f MB, finished %.1f MB, excess %.1f MB", len(blobs), mb(peak), mb(finished), mb(excess[n]))
	}
	// Twice the small upload's excess, and never less than 8 MB: the
	// collector's timing moves a few-MB excess by a few MB.
	if bound := max(2*excess[300], 8<<20); excess[1200] > bound {
		t.Errorf("ingest holds %.1f MB above its finished state at 1,200 reports, %.1f MB at 300: the excess grows with the upload", mb(excess[1200]), mb(excess[300]))
	}
}

// BenchmarkIngest ingests the 1,500-accident corpus 42 (1,545 reports) with
// the serving configuration (resilience on, a 5 ms model round trip) and
// reports its wall time (ms/op) and the highest live heap sampled while it
// ran (peak_live_MB, the raw reports included). `make bench` prints both in
// every CI log.
func BenchmarkIngest(b *testing.B) {
	corpus, err := ntsb.GenerateCorpus(1500, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Seed:        7,
		Parallelism: 8,
		LLMOptions:  []llm.SimOption{llm.WithLatency(5 * time.Millisecond)},
		Resilience:  &resilience.Options{},
	}
	for b.Loop() {
		peak, _, wall := ingestPeak(b, cfg, blobs)
		b.ReportMetric(float64(wall.Microseconds())/1e3, "ms/op")
		b.ReportMetric(mb(peak), "peak_live_MB")
	}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
