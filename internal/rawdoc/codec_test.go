package rawdoc_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"aryn/internal/ntsb"
	"aryn/internal/rawdoc"
)

// jsonRoundTrip is the value the codec must reproduce: what encoding/json
// makes of d, including its nil-versus-empty choices.
func jsonRoundTrip(t testing.TB, d *rawdoc.Doc) *rawdoc.Doc {
	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out rawdoc.Doc
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// Decode(Encode(d)) is the same value a JSON round trip of d gives, for every
// report of two corpora and for the builder sample, which has every element
// class.
func TestBinaryMatchesJSONRoundTrip(t *testing.T) {
	docs := []*rawdoc.Doc{rawdoc.BuildSample()}
	for _, seed := range []int64{42, 43} {
		corpus, err := ntsb.GenerateCorpus(300, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range corpus.Incidents {
			docs = append(docs, ntsb.BuildReport(&corpus.Incidents[i]))
		}
	}
	for _, d := range docs {
		blob, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rawdoc.Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if want := jsonRoundTrip(t, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: binary round trip differs from the JSON one", d.ID)
		}
	}
}

// BenchmarkRawdocCodec times one report's encode and decode, cycling over
// 100 reports of corpus 42, and prints the blob size a report costs.
func BenchmarkRawdocCodec(b *testing.B) {
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		b.Fatal(err)
	}
	docs := make([]*rawdoc.Doc, len(corpus.Incidents))
	blobs := make([][]byte, len(docs))
	total := 0
	for i := range docs {
		docs[i] = ntsb.BuildReport(&corpus.Incidents[i])
		if blobs[i], err = docs[i].Encode(); err != nil {
			b.Fatal(err)
		}
		total += len(blobs[i])
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, err := docs[i%len(blobs)].Encode(); err != nil {
				b.Fatal(err)
			}
			i++
		}
		b.ReportMetric(float64(total)/float64(len(blobs)), "blob_bytes/report")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, err := rawdoc.Decode(blobs[i%len(blobs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
