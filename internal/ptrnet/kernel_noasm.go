//go:build !amd64

package ptrnet

// Only amd64 has assembly kernels; everywhere else the branches on
// useAVX2 compile away and these are never called.
const useAVX2 = false

func matvecAVX2(z, x, w []float64)             { panic("ptrnet: no assembly kernels") }
func axpyAVX2(z, row []float64, a float64)     { panic("ptrnet: no assembly kernels") }
func scoreExpAVX2(v, ea, eq []float64) float64 { panic("ptrnet: no assembly kernels") }
func expvAVX2(xs []float64)                    { panic("ptrnet: no assembly kernels") }
