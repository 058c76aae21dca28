//go:build !amd64

package buildpair

// Selected by the build constraint above.
const wide = false

func sum4(xs []float64) float64 { panic("buildpair: no kernel") }
