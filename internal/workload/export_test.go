package workload

// EncodeProfile exposes encodeProfile to the package's external tests.
var EncodeProfile = encodeProfile
