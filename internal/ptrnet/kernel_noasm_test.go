//go:build !amd64

package ptrnet

import "testing"

// withKernels runs f on the portable kernels, the only ones there are.
func withKernels(t *testing.T, f func(t *testing.T)) {
	t.Run(KernelPath(), f)
}
