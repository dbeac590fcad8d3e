package qa

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"aryn/internal/core"
	"aryn/internal/ntsb"
)

// testdata/plan_golden.txt pins what /v1/plan shows and /v1/query runs for
// the 30 questions on the benchmark's corpus (seed 42, 100 accidents), with
// the optimize phase off and on: the SHA-256 over the plan's text, the
// executed plan's JSON, the cost model's estimates for the rewritten and
// optimized plans, the compiled pipeline and the answer. -update rewrites
// it; that is only legitimate when planning, estimating or lowering is
// meant to change.
func TestPlanPreviewGolden(t *testing.T) {
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
		for _, optimize := range []bool{false, true} {
			res, err := sys.QueryService().WithOptimize(optimize).Ask(context.Background(), q.Text)
			if err != nil {
				t.Fatalf("q%02d (optimize %v): %v", q.ID, optimize, err)
			}
			cost, err := json.Marshal(res.Cost)
			if err != nil {
				t.Fatal(err)
			}
			costOpt, err := json.Marshal(res.CostOptimized)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%s",
				res.Plan.String(), res.ExecutedPlan().JSON(), cost, costOpt, res.Compiled, res.Answer.String())
			fmt.Fprintf(&got, "q%02d\toptimize=%v\t%x\n", q.ID, optimize, h.Sum(nil))
		}
	}
	checkGolden(t, "testdata/plan_golden.txt", got.String())
}
