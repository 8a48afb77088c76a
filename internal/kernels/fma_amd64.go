//go:build amd64

package kernels

// The 4-row panels of MulSubContig and MulSubScattered dispatch to a
// hand-written AVX2+FMA micro-kernel when the CPU and OS support it,
// mirroring the paper's use of hand-optimized Level-3 BLAS for the block
// operations. Detection follows the standard sequence: CPUID leaf 1 must
// advertise FMA, AVX and OSXSAVE, and XGETBV must confirm the OS saves the
// XMM/YMM state. Everything else (remainders, the lower-triangular masked
// kernel, non-amd64 builds) runs the portable register-tiled Go code.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// dot4x2fma computes the eight inner products of four A rows against two
// B rows over n shared elements: out[2i+j] = Σₖ aᵢ[k]·bⱼ[k].
//
//go:noescape
func dot4x2fma(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64)

// hasFMA is the single hardware-capability gate, computed once at init;
// setFMA can never turn the micro-kernel on without it.
var hasFMA = detectFMA()

// useFMA gates the assembly micro-kernel. It is a variable, not a constant,
// so tests can force the portable path on hardware that has FMA.
var useFMA = hasFMA

func detectFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const need = 1<<12 | 1<<27 | 1<<28 // FMA, OSXSAVE, AVX
	if ecx&need != need {
		return false
	}
	eax, _ := xgetbv0()
	return eax&6 == 6 // OS maintains XMM and YMM state
}
