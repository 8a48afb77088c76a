package kernels

import (
	"errors"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// Breakdown reporting: every bad-pivot shape (negative, zero, NaN, +Inf)
// must surface as a *PivotError naming the offending row, never as a NaN
// factor, on both the naive and blocked paths.

func TestPivotErrorShapes(t *testing.T) {
	cases := []struct {
		name   string
		poison float64
	}{
		{"negative", -4},
		{"zero", 0},
		{"nan", math.NaN()},
		{"posinf", math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := 5
			row := 3
			a := spd(w, 2)
			a[row*w+row] = tc.poison
			for _, fac := range []struct {
				name string
				f    func([]float64, int) error
			}{{"naive", choleskyNaive}, {"blocked", Cholesky}} {
				b := append([]float64(nil), a...)
				err := fac.f(b, w)
				if err == nil {
					t.Fatalf("%s: factored a poisoned matrix", fac.name)
				}
				if !errors.Is(err, ErrNotPositiveDefinite) {
					t.Fatalf("%s: %v does not match ErrNotPositiveDefinite", fac.name, err)
				}
				var pe *PivotError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: %v is not a *PivotError", fac.name, err)
				}
				// A poisoned diagonal at `row` may break at that row; NaN
				// could be detected there and never earlier.
				if pe.Row > row {
					t.Fatalf("%s: broke at row %d, poison at row %d", fac.name, pe.Row, row)
				}
			}
		})
	}
}

func TestSolveRightBrokenDiagonal(t *testing.T) {
	w, r := 4, 3
	l := spd(w, 1)
	if err := Cholesky(l, w); err != nil {
		t.Fatal(err)
	}
	l[2*w+2] = math.NaN()
	x := make([]float64, r*w)
	for i := range x {
		x[i] = 1
	}
	for _, sv := range []struct {
		name string
		f    func([]float64, int, []float64, int) error
	}{{"tiled", solveRight}, {"naive", solveRightNaive}} {
		xs := append([]float64(nil), x...)
		err := sv.f(xs, r, l, w)
		var pe *PivotError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %v, want *PivotError", sv.name, err)
		}
		if pe.Row != 2 {
			t.Fatalf("%s: Row = %d, want 2", sv.name, pe.Row)
		}
		// The operand must be untouched: the pre-pass rejects before writing.
		for i := range xs {
			if xs[i] != 1 {
				t.Fatalf("%s: x[%d] modified to %g before error", sv.name, i, xs[i])
			}
		}
	}
}

func TestFactorNeverEmitsNaN(t *testing.T) {
	// Even when the error is returned, the portion of the matrix already
	// factored must be finite — breakdown is detected before the sqrt.
	w := 8
	a := spd(w, 7)
	a[5*w+5] = -1
	err := Cholesky(a, w)
	if err == nil {
		t.Fatal("expected breakdown")
	}
	var pe *PivotError
	if !errors.As(err, &pe) {
		t.Fatal("expected *PivotError")
	}
	for i := 0; i < pe.Row; i++ {
		for j := 0; j <= i; j++ {
			if v := a[i*w+j]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("L(%d,%d)=%g not finite before breakdown row %d", i, j, v, pe.Row)
			}
		}
	}
}

func TestCholeskyNoChecksMatches(t *testing.T) {
	for _, w := range []int{1, 3, 8, 17, 48} {
		a := spd(w, w)
		b := append([]float64(nil), a...)
		if err := Cholesky(a, w); err != nil {
			t.Fatal(err)
		}
		CholeskyNoChecks(b, w)
		for i := 0; i < w; i++ {
			for j := 0; j <= i; j++ {
				if got, want := b[i*w+j], a[i*w+j]; !closeEnough(got, want) {
					t.Fatalf("w=%d: unchecked L(%d,%d)=%g, checked %g", w, i, j, got, want)
				}
			}
		}
	}
}

// TestPivotCheckOverhead is the CI gate on what breakdown detection costs
// BFAC: at every block width the partitioner produces, Cholesky (pivot
// checks on) must stay within 5% of CholeskyNoChecks. Each width times
// many pairs of adjacent ~2ms slices, one per variant in alternating
// order, and gates on the median of the per-pair ratios, the method of
// the fan-out disabled-recorder gate. Timing is noisy on shared runners, so
// the check runs only when OBS_OVERHEAD_CHECK=1 (the CI overhead step sets
// it).
func TestPivotCheckOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_CHECK") != "1" {
		t.Skip("set OBS_OVERHEAD_CHECK=1 to run the timing comparison")
	}
	checked := func(a []float64, w int) {
		if err := Cholesky(a, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range benchWidths {
		src := spd(w, 2)
		dst := make([]float64, len(src))
		n := 1000
		slice := func(factor func([]float64, int)) float64 {
			start := time.Now()
			for i := 0; i < n; i++ {
				copy(dst, src)
				factor(dst, w)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(n)
		}
		n = int(float64(2*time.Millisecond)/slice(checked)) + 1
		ratios := make([]float64, 120)
		for p := range ratios {
			var base, gated float64
			if p%2 == 0 {
				gated, base = slice(checked), slice(CholeskyNoChecks)
			} else {
				base, gated = slice(CholeskyNoChecks), slice(checked)
			}
			ratios[p] = gated / base
		}
		sort.Float64s(ratios)
		ratio := (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		t.Logf("w=%d: checked / unchecked median ratio %.4f over %d pairs (range %.4f–%.4f)",
			w, ratio, len(ratios), ratios[0], ratios[len(ratios)-1])
		if ratio > 1.05 {
			t.Errorf("w=%d: pivot checks cost %.2f%% of BFAC throughput (> 5%%)", w, (ratio-1)*100)
		}
	}
}

// FMA dispatch hardening: setFMA can never switch the micro-kernel on
// without hardware support.

func TestSetFMAGatedOnHardware(t *testing.T) {
	prev := useFMA
	defer setFMA(prev)
	setFMA(true)
	if useFMA && !hasFMA {
		t.Fatal("setFMA(true) enabled the micro-kernel without hardware support")
	}
	setFMA(false)
	if useFMA {
		t.Fatal("setFMA(false) left the micro-kernel enabled")
	}
}
