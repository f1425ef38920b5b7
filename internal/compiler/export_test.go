package compiler

// ResetAnalysisMemo lets the external tests start a compile from an
// empty analysis memo.
var ResetAnalysisMemo = resetAnalysisMemo
