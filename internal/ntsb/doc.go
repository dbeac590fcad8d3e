// Package ntsb synthesizes the evaluation corpus of §7: aviation
// incident reports in the style of the NTSB CAROL database, rendered as
// rawdoc "PDFs", with exact ground truth retained for scoring.
//
// The generator deliberately reproduces the dataset properties the
// paper's failure analysis depends on: a few accidents involve two
// aircraft and yield two reports sharing an accident number (the §7.2
// double-counting trap); most narratives mention the engine even when the
// engine was not causal (the llmFilter generosity trap); and every report
// embeds the NTSB liability disclaimer (the RAG context-poisoning trap).
//
// Paper counterpart: the NTSB corpus of §7.1.
//
// A Corpus is ground truth only: its incidents (≈ 0.6 KB a report). The
// report documents are not kept; Corpus.Blobs renders each one
// (BuildReport) and encodes it when asked, and a caller that needs one
// rendered report calls BuildReport itself.
//
// Concurrency: generation and rendering are pure functions of (count,
// seed); a Corpus is plain data once generated. Generate in one
// goroutine, read from many. Blobs renders and encodes on
// runtime.GOMAXPROCS(0) workers, each dropping a report once it is
// encoded, and returns the same bytes at any worker count.
package ntsb
