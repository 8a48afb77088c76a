package mapping

import (
	"math"
	"sort"
	"testing"
)

// TestGreedyWeightedNaNSpeedSkipped is the regression test for the NaN
// capture bug: a NaN speed produced a NaN completion time, NaN compared
// false in the `t < bestT` improvement check but the initial `best < 0`
// branch accepted it, so the NaN bin won once and then every later item
// piled onto it. NaN bins must receive nothing.
func TestGreedyWeightedNaNSpeedSkipped(t *testing.T) {
	weight := []int64{9, 8, 7, 6, 5, 4}
	ord := []int{0, 1, 2, 3, 4, 5}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		asg := GreedyWeighted(ord, weight, []float64{bad, 1, 1})
		for it, b := range asg {
			if b == 0 {
				t.Fatalf("speed %v: item %d assigned to degenerate bin", bad, it)
			}
		}
		got := append([]int(nil), asg...)
		sort.Ints(got)
		if got[0] != 1 || got[len(got)-1] != 2 {
			t.Fatalf("speed %v: expected both live bins used, got %v", bad, asg)
		}
	}
}

// TestGreedyWeightedAllDegeneratePanics: with no usable bin at all the
// unchecked partitioner must fail loudly, not return a zeroed assignment.
func TestGreedyWeightedAllDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GreedyWeighted returned with no positive-speed bin")
		}
	}()
	GreedyWeighted([]int{0}, []int64{1}, []float64{0, math.NaN(), math.Inf(1), -2})
}

// TestGreedyWeightedCheckedRejectsDegenerate: the checked variant (the
// cluster partitioner's entry point) must turn every malformed speed
// vector into an error instead of a silently degenerate partition.
func TestGreedyWeightedCheckedRejectsDegenerate(t *testing.T) {
	ord := []int{0, 1}
	weight := []int64{3, 2}
	cases := [][]float64{
		{},                // no bins
		{math.NaN(), 1},   // malformed calibration
		{math.Inf(1), 1},  // malformed calibration
		{math.Inf(-1), 1}, // malformed calibration
		{0, 1},            // uncalibrated bin
		{-0.5, 1},         // uncalibrated bin
	}
	for _, speeds := range cases {
		if _, err := GreedyWeightedChecked(ord, weight, speeds); err == nil {
			t.Fatalf("speeds %v: expected error, got none", speeds)
		}
	}
}

// TestGreedyWeightedCheckedClampsFloor: one absurdly small (but positive)
// calibration reading is clamped to the relative floor, so the other bins
// do not absorb everything as if they were infinitely faster.
func TestGreedyWeightedCheckedClampsFloor(t *testing.T) {
	// Enough unit items that a 1/1000-speed bin must receive some: without
	// the clamp a 1e-12 reading would need ~1e12 items before its first.
	n := 5000
	ord := make([]int, n)
	weight := make([]int64, n)
	for i := range ord {
		ord[i] = i
		weight[i] = 1
	}
	asg, err := GreedyWeightedChecked(ord, weight, []float64{1e-12, 1})
	if err != nil {
		t.Fatal(err)
	}
	var tiny int
	for _, b := range asg {
		if b == 0 {
			tiny++
		}
	}
	// Floor is SpeedFloorFrac of max: the clamped bin gets roughly a
	// 1/1000 share of the uniform unit items — nonzero (the unclamped
	// 1e-12 share rounds to zero for any realistic n) but still small.
	if tiny == 0 {
		t.Fatalf("floor-clamped bin received nothing of %d items", n)
	}
	if tiny > n/100 {
		t.Fatalf("floor-clamped bin received %d of %d items (floor too high)", tiny, n)
	}
}
