package ntsb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// testdata/blobs_golden.txt pins every byte Blobs renders for the
// benchmark's corpora (1,500 accidents, seeds 42 and 43): per corpus, the
// SHA-256 over its blobs in sorted ID order, each as (ID, length, bytes).
// -update rewrites it; that is only legitimate when the rendered reports
// or the rawdoc encoding are meant to change.
var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

func blobsDigest(blobs map[string][]byte) string {
	h := sha256.New()
	total := 0
	for _, id := range slices.Sorted(maps.Keys(blobs)) {
		b := blobs[id]
		h.Write(binary.AppendUvarint(nil, uint64(len(id))))
		h.Write([]byte(id))
		h.Write(binary.AppendUvarint(nil, uint64(len(b))))
		h.Write(b)
		total += len(b)
	}
	return fmt.Sprintf("reports=%d bytes=%d sha256=%x", len(blobs), total, h.Sum(nil))
}

func TestBlobsDigestGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{42, 43} {
		c, err := GenerateCorpus(1500, seed)
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := c.Blobs()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "corpus accidents=1500 seed=%d %s\n", seed, blobsDigest(blobs))
	}
	const path = "testdata/blobs_golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("rendered blobs moved:\n got: %s\nwant: %s", got.String(), want)
	}
}

// Blobs renders on every core; what it returns is a serial render and
// encode of every report, whatever the worker count.
func TestBlobsMatchSerialRender(t *testing.T) {
	c, err := GenerateCorpus(120, 43)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := range c.Incidents {
		b, err := BuildReport(&c.Incidents[i]).Encode()
		if err != nil {
			t.Fatal(err)
		}
		want[c.Incidents[i].ReportID] = b
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := c.Blobs()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d blobs, want %d", procs, len(got), len(want))
		}
		for id, w := range want {
			if !bytes.Equal(got[id], w) {
				t.Errorf("GOMAXPROCS %d: blob %s differs from its serial render", procs, id)
			}
		}
	}
}

// A corpus is ground truth, not rendered reports: 1,500 accidents retain
// ≈ 0.9 MB (≈ 0.6 KB per report), where holding the reports cost ≈ 43 MB.
func TestCorpusFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := GenerateCorpus(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(c)
	if retained >= 2<<20 {
		t.Errorf("GenerateCorpus(1500, 42) retains %.2f MB, want under 2 MB", float64(retained)/(1<<20))
	}
	t.Logf("%d reports retain %.2f MB (%.0f B per report)", len(c.Incidents), float64(retained)/(1<<20), float64(retained)/float64(len(c.Incidents)))
}
