package llm

// CheckScanners holds the Sim's text scanners to the expressions they
// replace over one document's text (scan_test.go), for the external test
// that runs them over a generated corpus.
var CheckScanners = checkScanners
