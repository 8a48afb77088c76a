package cluster

import (
	"fmt"
	"testing"

	"blockfanout/internal/sparse"
)

func TestRingDeterministicAndDistinct(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	r := buildRing(ids)
	all := func(int) bool { return true }
	p1 := r.pick(12345, 3, all)
	p2 := r.pick(12345, 3, all)
	if len(p1) != 3 {
		t.Fatalf("picked %d targets, want 3", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pick not deterministic: %v vs %v", p1, p2)
		}
	}
	seen := map[int]bool{}
	for _, i := range p1 {
		if seen[i] {
			t.Fatalf("duplicate target in %v", p1)
		}
		seen[i] = true
	}
}

// TestRingSurvivorStability: removing a node must not move picks that did
// not land on it — the consistent-hashing property buddy routing relies on.
func TestRingSurvivorStability(t *testing.T) {
	ids := []string{"n0", "n1", "n2", "n3", "n4"}
	r := buildRing(ids)
	all := func(int) bool { return true }
	for key := uint64(0); key < 200; key++ {
		before := r.pick(key*0x9e3779b97f4a7c15, 1, all)[0]
		dead := (before + 1) % len(ids) // kill someone else
		after := r.pick(key*0x9e3779b97f4a7c15, 1, func(i int) bool { return i != dead })[0]
		if after != before {
			t.Fatalf("key %d: pick moved %d → %d though %d stayed alive", key, before, after, dead)
		}
	}
}

func TestRingSkipsDead(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r := buildRing(ids)
	got := r.pick(99, 3, func(i int) bool { return i != 1 })
	if len(got) != 2 {
		t.Fatalf("want 2 alive targets, got %v", got)
	}
	for _, i := range got {
		if i == 1 {
			t.Fatalf("dead node picked: %v", got)
		}
	}
}

func TestRingBalance(t *testing.T) {
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, fmt.Sprintf("node-%d", i))
	}
	r := buildRing(ids)
	counts := make([]int, 8)
	for k := 0; k < 4000; k++ {
		counts[r.pick(sparse.FNVMix(sparse.FNVOffset, uint64(k)), 1, func(int) bool { return true })[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("node %d never picked: %v", i, counts)
		}
		if c > 4000/2 {
			t.Fatalf("node %d got %d of 4000 keys — ring badly skewed: %v", i, c, counts)
		}
	}
}
