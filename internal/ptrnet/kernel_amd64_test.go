package ptrnet

import "testing"

// withKernels runs f under each kernel path this CPU has, as subtests
// "avx2" and "portable". It writes useAVX2, so f's subtests must not
// outlive it (no t.Parallel).
func withKernels(t *testing.T, f func(t *testing.T)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	for _, avx2 := range []bool{true, false} {
		if avx2 && !detected {
			continue
		}
		useAVX2 = avx2
		t.Run(KernelPath(), f)
	}
}

// TestGoldenDecodePortable is TestGoldenDecode on the portable kernels,
// which that test did not run if the CPU has AVX2. It is a test of its own
// so that the graphs can decode in parallel: the variable is restored only
// after every one of them has finished.
func TestGoldenDecodePortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("TestGoldenDecode ran the portable kernels")
	}
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = true })
	testGoldenDecode(t)
}
