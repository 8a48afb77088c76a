//go:build amd64

package kernels

// The packed outer-product micro-kernel (mulSubStrip) runs as hand-written
// AVX2+FMA assembly when the CPU and OS support it, mirroring the paper's
// use of hand-optimized Level-3 BLAS for the block operations: one call
// per strip of up to tileRows rows of A sweeps every packed tileCols-wide
// panel of B, holding each 4×8 block of C in eight YMM accumulators for
// the whole k loop. Detection follows the standard sequence: CPUID leaf 1
// must advertise FMA, AVX and OSXSAVE, and XGETBV must confirm the OS
// saves the XMM/YMM state. Without it (and on non-amd64 builds) the same
// strips run mulSubStripGo, the kernel's pure-Go twin.

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// mulSubStripFMA is the assembly form of the strip kernel; see
// mulSubStripGo for the contract. The caller (mulSubStrip) has checked
// every operand's extent.
//
//go:noescape
func mulSubStripFMA(c *float64, rows *[tileRows]int, a *float64, lda, mr int, bp *float64, w, ncols int)

// packPanelAVX is the assembly form of packPanelGo; the caller (packB)
// has checked both operands' extent.
//
//go:noescape
func packPanelAVX(dst *float64, src *float64, ldb, w int)

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
