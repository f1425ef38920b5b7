package cjson

// The round-trip oracle, for the external tests.
var (
	RefMarshal       = refMarshal
	RefMarshalIndent = refMarshalIndent
	RefCanonicalize  = refCanonicalize
)
