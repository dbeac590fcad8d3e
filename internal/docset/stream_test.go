package docset

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/docmodel"
)

func streamDocs(n int) []*docmodel.Document {
	docs := make([]*docmodel.Document, n)
	for i := range docs {
		d := docmodel.New(fmt.Sprintf("s%03d", i))
		d.SetProperty("rank", i)
		d.Text = "engine fire near the runway"
		docs[i] = d
	}
	return docs
}

func docJSON(t *testing.T, docs []*docmodel.Document) string {
	t.Helper()
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ExecuteStream must deliver every result document through the sink in
// bounded batches and still return the exact documents Execute returns,
// in the same deterministic order.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	build := func(ec *Context) *DocSet {
		return FromDocuments(ec, streamDocs(23)).
			Filter("keep", func(d *docmodel.Document) (bool, error) { return true, nil }).
			Map("mark", func(d *docmodel.Document) (*docmodel.Document, error) {
				d.SetProperty("seen", true)
				return d, nil
			})
	}

	batchEC := NewContext(WithParallelism(4))
	want, batchTrace, err := build(batchEC).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, nt := range batchTrace.Nodes {
		if nt.Batches != 0 {
			t.Errorf("node %s counted %d batches with no sink attached, want 0", nt.Name, nt.Batches)
		}
	}

	streamEC := NewContext(WithParallelism(4))
	streamEC.StreamBatch = 4
	var streamed int
	var batches int
	got, trace, err := build(streamEC).ExecuteStream(context.Background(), func(docs []*docmodel.Document) {
		if len(docs) == 0 || len(docs) > 4 {
			t.Errorf("sink batch of %d docs, want 1..4", len(docs))
		}
		streamed += len(docs)
		batches++
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(want) {
		t.Errorf("sink saw %d docs, want %d", streamed, len(want))
	}
	if batches < 2 {
		t.Errorf("sink saw %d batches, want several (23 docs / batch 4)", batches)
	}
	if a, b := docJSON(t, got), docJSON(t, want); a != b {
		t.Errorf("streamed result differs from batch result:\n%s\nvs\n%s", a, b)
	}
	// The last operator counts one batch per sink flush.
	final := trace.Nodes[len(trace.Nodes)-1]
	if n := atomic.LoadInt64(&final.Batches); n != int64(batches) {
		t.Errorf("final stage counted %d batches, sink saw %d", n, batches)
	}
	// First-batch latency is recorded for the operators that emitted.
	if fo := atomic.LoadInt64(&final.FirstOutNS); fo <= 0 || time.Duration(fo) > trace.Wall+time.Second {
		t.Errorf("final stage FirstOutNS = %d, want within (0, wall]", fo)
	}
}

// The sink must see documents while the producer is still emitting: the
// whole point of streaming the final stage's output.
func TestExecuteStreamSinkOverlapsProducer(t *testing.T) {
	ec := NewContext(WithParallelism(2))
	ec.StreamBatch = 2
	var produced, overlapped int64
	out, _, err := FromDocuments(ec, streamDocs(16)).
		Map("slowProduce", func(d *docmodel.Document) (*docmodel.Document, error) {
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&produced, 1)
			return d, nil
		}).
		ExecuteStream(context.Background(), func(docs []*docmodel.Document) {
			if atomic.LoadInt64(&produced) < 16 {
				atomic.AddInt64(&overlapped, 1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("got %d docs, want 16", len(out))
	}
	if atomic.LoadInt64(&overlapped) == 0 {
		t.Error("sink never ran while the producer was still emitting; the stream did not pipeline")
	}
}

// A slow sink must backpressure a plain map producer: the sink runs on the
// collector goroutine, so the last stage's bounded channel fills and the
// producer cannot run unboundedly ahead.
func TestExecuteStreamSinkBackpressure(t *testing.T) {
	ec := NewContext(WithParallelism(1))
	ec.StreamBatch = 1
	var produced, consumed, maxAhead int64
	_, _, err := FromDocuments(ec, streamDocs(32)).
		Map("count", func(d *docmodel.Document) (*docmodel.Document, error) {
			p := atomic.AddInt64(&produced, 1)
			c := atomic.LoadInt64(&consumed)
			for {
				old := atomic.LoadInt64(&maxAhead)
				if p-c <= old || atomic.CompareAndSwapInt64(&maxAhead, old, p-c) {
					break
				}
			}
			return d, nil
		}).
		ExecuteStream(context.Background(), func(docs []*docmodel.Document) {
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&consumed, int64(len(docs)))
		})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity between the map stage and the sink: the stage's output
	// channel (2×Parallelism), its one worker's document in hand, and the
	// batch the sink is holding. With batch=1, parallelism=1 that is
	// single digits; 12 leaves margin while still proving the bound (vs
	// 32) — and fails if a plain map stage is ever widened beyond
	// Parallelism the way model-calling stages are.
	if ahead := atomic.LoadInt64(&maxAhead); ahead > 12 {
		t.Errorf("producer ran %d docs ahead of the sink, want bounded (<= 12)", ahead)
	}
}

// A stage failure mid-stream withholds the tail batch (everything already
// delivered stands), returns the documents that cleared the pipeline, and
// names the failing node in both the error and the trace.
func TestExecuteStreamFailureWithholdsTail(t *testing.T) {
	ec := NewContext(WithParallelism(1))
	ec.StreamBatch = 3
	boom := errors.New("producer exploded")
	var delivered int
	docs, trace, err := FromDocuments(ec, streamDocs(8)).
		Map("explode", func(d *docmodel.Document) (*docmodel.Document, error) {
			if v, _ := d.Properties.Float("rank"); v >= 4 {
				return nil, boom
			}
			return d, nil
		}).
		ExecuteStream(context.Background(), func(batch []*docmodel.Document) {
			if len(batch) != 3 {
				t.Errorf("sink batch of %d docs, want only full batches of 3 (tail withheld)", len(batch))
			}
			delivered += len(batch)
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "explode") {
		t.Fatalf("err = %v, want the stage failure labeled with the node name", err)
	}
	// Ranks 0..3 cleared the stage: one full batch delivered, the fourth
	// document is the withheld tail but still part of the partial result.
	if delivered != 3 || len(docs) != 4 {
		t.Errorf("sink saw %d docs and the partial result has %d, want 3 and 4", delivered, len(docs))
	}
	if got := trace.Nodes[1].Err; !strings.Contains(got, "producer exploded") {
		t.Errorf("trace node %q Err = %q, want the stage failure", trace.Nodes[1].Name, got)
	}
	if got := trace.Nodes[0].Err; got != "" {
		t.Errorf("source node Err = %q, want blank (collateral cancellation)", got)
	}
}

// Live progress snapshots must be safe to take while the pipeline is
// executing (run under -race), and the TraceSink must see the trace
// before results flow.
func TestTraceSinkLiveSnapshots(t *testing.T) {
	ec := NewContext(WithParallelism(2))
	var mu sync.Mutex
	var registered []*Trace
	ec.TraceSink = func(tr *Trace) {
		mu.Lock()
		registered = append(registered, tr)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			for _, tr := range registered {
				tr.Snapshots()
			}
			mu.Unlock()
		}
	}()
	docs, _, err := FromDocuments(ec, streamDocs(40)).
		Map("work", func(d *docmodel.Document) (*docmodel.Document, error) {
			time.Sleep(200 * time.Microsecond)
			d.SetProperty("w", 1)
			return d, nil
		}).Execute(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 40 {
		t.Fatalf("got %d docs, want 40", len(docs))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(registered) != 1 {
		t.Fatalf("TraceSink saw %d traces, want 1", len(registered))
	}
	snaps := registered[0].Snapshots()
	final := snaps[len(snaps)-1]
	last := registered[0].Nodes[len(snaps)-1]
	if final.Out != 40 || last.FirstOutNS <= 0 {
		t.Errorf("final snapshot = %+v, first out after %d ns, want Out=40 and a positive first-out time", final, last.FirstOutNS)
	}
}
