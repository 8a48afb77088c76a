//go:build !amd64

package kernels

import "testing"

// On non-amd64 builds the dispatch gate is constant-false and dot4x2fma is
// the pure-Go fallback; calling it must never panic.
func TestNoAsmFallbackNeverPanics(t *testing.T) {
	if hasFMA {
		t.Fatal("hasFMA must be false on non-amd64 builds")
	}
	if setFMA(true) {
		t.Fatal("setFMA(true) must stay off without assembly support")
	}
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1, 1, 2, 2}
	var out [8]float64
	dot4x2fma(&a[0], &a[2], &a[4], &a[6], &b[0], &b[2], 2, &out)
	if out[0] != 3 { // a0·b0 = 1+2
		t.Fatalf("out[0] = %g, want 3", out[0])
	}
}
