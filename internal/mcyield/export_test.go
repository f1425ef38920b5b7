package mcyield

// SigmaLevel exposes sigmaLevel to the external test package.
var SigmaLevel = sigmaLevel
