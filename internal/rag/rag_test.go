package rag

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
	"aryn/internal/index"
	"aryn/internal/llm"
)

func fixture(t *testing.T) *Pipeline {
	t.Helper()
	store := index.NewStore()
	em := embed.NewHash(1)
	add := func(id string, texts ...string) {
		d := docmodel.New(id)
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
		for i, text := range texts {
			err := store.PutChunk(index.Chunk{
				ID: id + "-" + string(rune('a'+i)), ParentID: id,
				Text: text, Vector: em.Embed(text),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	add("A1",
		"On July 4, 2024 the airplane struck a flock of geese after takeoff.",
		"The NTSB does not assign fault or blame for an accident or incident.")
	add("B2",
		"The pilot lost directional control in gusting crosswinds during landing.",
		"The NTSB does not assign fault or blame for an accident or incident.")
	add("C3",
		"The engine lost power due to fuel exhaustion over mountainous terrain.",
		"The NTSB does not assign fault or blame for an accident or incident.")
	return New(store, llm.NewSim(1), em)
}

func TestAnswerRetrievesAndAnswers(t *testing.T) {
	p := fixture(t)
	resp, err := p.Answer(context.Background(), "Which incidents involved birds?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Retrieved == 0 {
		t.Fatal("nothing retrieved")
	}
	if !strings.Contains(resp.Answer, "A1") {
		t.Errorf("bird doc not found: %q (%s)", resp.Answer, resp.Text)
	}
	if strings.Contains(resp.Answer, "B2") {
		t.Errorf("non-bird doc leaked: %q", resp.Answer)
	}
}

func TestAnswerRefusesOnPoisonedCauseQuestion(t *testing.T) {
	p := fixture(t)
	resp, err := p.Answer(context.Background(), "How many incidents were due to engine problems?")
	if err != nil {
		t.Fatal(err)
	}
	// Half the corpus chunks are disclaimers; a fault-adjacent question
	// must refuse.
	if !resp.Refused {
		t.Errorf("expected refusal, got: %s", resp.Text)
	}
	if resp.PoisonedChunks == 0 {
		t.Error("poisoned chunk accounting broken")
	}
}

func TestAnswerUsageAccounted(t *testing.T) {
	p := fixture(t)
	resp, err := p.Answer(context.Background(), "How many incidents occurred in July?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.Calls != 1 || resp.Usage.PromptTokens == 0 {
		t.Errorf("usage = %+v", resp.Usage)
	}
}

// TestKDefaulting: a pipeline with no K retrieves 100 chunks, and it does
// so without writing to the pipeline, which concurrent /v1/query rag
// requests share (run under -race: make test).
func TestKDefaulting(t *testing.T) {
	store := index.NewStore()
	em := embed.NewHash(1)
	if err := store.PutDocument(docmodel.New("D")); err != nil {
		t.Fatal(err)
	}
	for i := range 120 {
		text := fmt.Sprintf("chunk %d about engine power", i)
		if err := store.PutChunk(index.Chunk{ID: fmt.Sprint("D-", i), ParentID: "D", Text: text, Vector: em.Embed(text)}); err != nil {
			t.Fatal(err)
		}
	}
	p := &Pipeline{Store: store, Client: llm.NewSim(1), Embedder: em}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := p.Answer(context.Background(), "Which incidents lost engine power?")
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Retrieved != 100 {
				t.Errorf("retrieved %d chunks, want the default 100", resp.Retrieved)
			}
		}()
	}
	wg.Wait()
	if p.K != 0 {
		t.Errorf("Answer wrote K = %d into the shared pipeline", p.K)
	}
}

func TestAnswerLine(t *testing.T) {
	if AnswerLine("blah\nAnswer: 42") != "42" {
		t.Error("basic answer line")
	}
	if AnswerLine("Answer: a\nmore\nAnswer: b") != "b" {
		t.Error("should take the last Answer line")
	}
	if AnswerLine("no marker") != "" {
		t.Error("missing marker should be empty")
	}
}
