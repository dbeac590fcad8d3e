// Package rawdoc defines the synthetic raw-document format this
// reproduction uses in place of PDF/DOCX inputs. A rawdoc carries what a
// rendered page carries: positioned text runs with font metrics, rule
// lines (table borders), and image blobs. Crucially it also carries
// ground-truth layout regions — the labels a human DocLayNet annotator
// would draw — which are used only for evaluation, never shown to the
// segmentation models.
//
// The substitution preserves the paper's pipeline shape: DocParse (§4)
// renders documents to images precisely so it can work from page geometry
// (position, size, font) rather than file-format internals; rawdoc hands
// the vision stage that same geometric signal directly.
//
// Paper counterpart: the PDF/DOCX inputs DocParse partitions (§4).
//
// Blob layout (Encode/Decode, format.go): the magic "RAWDOC2\n", then the
// Doc's fields in declaration order — ID, Title, Meta (keys sorted, so equal
// documents encode to equal bytes), Pages (each its Runs, Rules, Images),
// Regions (each its Table cells and Image). A string or slice is a uvarint
// length and its payload; an int is a zigzag varint; a float64 its 8 IEEE
// bytes little-endian, so every coordinate round-trips to the bit; a bool
// one byte. Doc.Pages and TableData.Cells write len+1, 0 meaning nil, so
// nil and empty stay apart as encoding/json keeps them; optional Table/Image
// carry a presence byte. Decode rejects anything else: another magic,
// truncation, trailing bytes, or a count the remaining bytes cannot hold
// (checked before any allocation, since /v1/ingest feeds it client bytes).
//
// Blobs are not compressed: deflate was three quarters of encoding an
// NTSB report, and the ≈ 15.6 KB blob is only ever built in-process or
// posted once to /v1/ingest — nothing persists it.
//
// Concurrency: encode/decode are pure functions; decoded documents are
// plain data owned by the caller.
package rawdoc
