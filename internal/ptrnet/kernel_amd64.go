package ptrnet

// useAVX2 selects the assembly form of the four kernels (kernel_amd64.s).
// It is set once, from what the CPU reports; only tests write it again.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the operating system
// saves the 256-bit registers across context switches.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmXMM  = 0b110   // XCR0: XMM and YMM state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXMM != ymmXMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It faults unless CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// The assembly kernels. Each trusts the lengths of its slices and nothing
// else, and each is called from one place, the Go function of the same
// name in kernel.go, which documents the arithmetic.

// matvecAVX2 accumulates columns [0, len(z)&^3) of z += xᵀ·W, where w
// holds len(x) rows of len(z) and len(x) is a multiple of 4.
func matvecAVX2(z, x, w []float64)

// axpyAVX2 accumulates z[j] += a·row[j]; both have the same length, a
// multiple of 4.
func axpyAVX2(z, row []float64, a float64)

// scoreExpAVX2 returns scoreExp's four lane sums combined; all three
// slices have the same length, a multiple of 4.
func scoreExpAVX2(v, ea, eq []float64) float64

// expvAVX2 is expv on a length that is a multiple of 4.
func expvAVX2(xs []float64)
