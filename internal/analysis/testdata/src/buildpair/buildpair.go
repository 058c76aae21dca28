// Package buildpair is a loader fixture: one declaration set given twice,
// once per platform, the way a package with assembly kernels is laid out.
// The loader must take the files the go tool would build and no others;
// taking both twins redeclares wide and sum4.
package buildpair

// Sum adds xs, four at a time where the platform has a kernel for it.
func Sum(xs []float64) float64 {
	if !wide {
		return sum4(nil) + float64(len(xs))
	}
	return sum4(xs)
}
