package rawdoc

// BuildSample exposes the builder sample to the external tests, which
// import ntsb and so cannot live in this package.
var BuildSample = buildSample
