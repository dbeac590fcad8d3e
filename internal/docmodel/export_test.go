package docmodel

// For the external tests, which read corpora through packages that import
// this one.
var (
	ReferenceTextView = referenceTextView
	ViewDiff          = viewDiff
)
