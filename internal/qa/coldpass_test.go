package qa

import (
	"context"
	"testing"

	"aryn/internal/core"
	"aryn/internal/ntsb"
)

// BenchmarkColdPass asks corpus 42's 30 questions with nothing remembered:
// each iteration purges the response cache and the planner's memo first,
// so every plan, filter, extract and answer goes to the model. The Sim has
// no latency, so ns/op is the pass's wall time on every core, much of it
// the Sim's; sim-ms/op is the Sim's busy time, summed over dispatches that
// overlap, so it can exceed ns/op.
func BenchmarkColdPass(b *testing.B) {
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 8})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		b.Fatal(err)
	}
	questions := Questions(corpus)
	busy := sys.LLM.StackStats().SimBusy
	b.ReportAllocs()
	for b.Loop() {
		sys.PurgeLLMCache()
		for _, q := range questions {
			if _, err := sys.QueryService().Ask(context.Background(), q.Text); err != nil {
				b.Fatalf("q%02d: %v", q.ID, err)
			}
		}
	}
	busy = sys.LLM.StackStats().SimBusy - busy
	b.ReportMetric(busy.Seconds()*1000/float64(b.N), "sim-ms/op")
}
