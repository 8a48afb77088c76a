//go:build !amd64

package kernels

import "testing"

// On non-amd64 builds the dispatch gate is constant-false and
// mulSubStripFMA runs the pure-Go twin; calling it must never panic.
func TestNoAsmFallbackNeverPanics(t *testing.T) {
	if hasFMA {
		t.Fatal("hasFMA must be false on non-amd64 builds")
	}
	if setFMA(true) {
		t.Fatal("setFMA(true) must stay off without assembly support")
	}
	a := []float64{1, 2}
	var ws Workspace
	bp := ws.packB([]float64{1, 1}, 1, 2, 2)
	c := []float64{0}
	rows := [tileRows]int{}
	mulSubStripFMA(&c[0], &rows, &a[0], 2, 1, &bp[0], 2, 1)
	if c[0] != -3 { // c − a·b = 0 − (1+2)
		t.Fatalf("c[0] = %g, want -3", c[0])
	}
}
