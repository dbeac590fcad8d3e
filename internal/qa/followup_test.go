package qa

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"aryn/internal/core"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

// testdata/followup_golden.txt pins what a conversation does with a
// follow-up on the benchmark's corpus (seed 42, 100 accidents): for each of
// the 30 questions crossed with each follow-up below, the SHA-256 over the
// question, the follow-up, the follow-up's plan JSON, its rewritten plan
// JSON and its answer (or its error). -update rewrites it; that is only
// legitimate when how a follow-up is resolved is meant to change.
var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

// goldenFollowUps are the benchmark's four chat follow-ups plus four that
// name a semantic predicate, a state, an injury level and a manufacturer.
var goldenFollowUps = []string{
	"what about destroyed aircraft?",
	"what about in California?",
	"and what about helicopters?",
	"what about incidents at night?",
	"only those involving birds",
	"show only results in Texas",
	"how about fatal ones?",
	"now show only Cessna aircraft",
}

func TestFollowUpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, q := range Questions(corpus) {
		for _, f := range goldenFollowUps {
			var conv luna.Conversation
			if _, err := conv.Ask(context.Background(), sys.QueryService(), q.Text); err != nil {
				t.Fatalf("q%02d: %v", q.ID, err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%s\x00%s\x00", q.Text, f)
			if res, err := conv.Ask(context.Background(), sys.QueryService(), f); err != nil {
				fmt.Fprintf(h, "error: %v", err)
			} else {
				fmt.Fprintf(h, "%s\x00%s\x00%s", res.Plan.JSON(), res.Rewritten.JSON(), res.Answer.String())
			}
			fmt.Fprintf(&got, "q%02d\t%s\t%x\n", q.ID, f, h.Sum(nil))
		}
	}
	checkGolden(t, "testdata/followup_golden.txt", got.String())
}

// checkGolden compares a run's golden lines with the file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the run %d", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("golden line moved:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
