package buildpair

// Selected by the _amd64 file name suffix alone.
var wide = true

// sum4 has no body: it is implemented in assembly, which the type checker
// accepts as a declaration.
func sum4(xs []float64) float64
