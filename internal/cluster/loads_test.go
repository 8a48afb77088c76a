package cluster

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// pairingWalkLoads is the reference procLoads: each block's completing
// operation plus, walking every BMOD pairing, the modification's flops on
// its destination's owner.
func pairingWalkLoads(pr *sched.Program) []int64 {
	load := make([]int64, pr.NProc)
	for id := 0; id < pr.NBlocks; id++ {
		load[pr.Owner[id]] += pr.OwnOpFlops[id]
	}
	for k := range pr.Cols {
		m := len(pr.Cols[k].Blocks) - 1
		for ia := 1; ia <= m; ia++ {
			for jb := 1; jb <= ia; jb++ {
				load[pr.Owner[pr.ModDestID(k, ia, jb)]] += pr.ModFlops(k, ia, jb)
			}
		}
	}
	return load
}

// TestProcLoadsMatchPairingWalk checks that summing Block.Flops by owner
// gives the pairing walk's loads exactly, for every generator and blocking
// strategy, under the serving assignment (with domains) and a plain cyclic
// map.
func TestProcLoadsMatchPairingWalk(t *testing.T) {
	for _, in := range []struct {
		name   string
		m      *sparse.Matrix
		method order.Method
		grid   int
	}{
		{"cube", gen.Cube3D(6), order.NDCube3D, 6},
		{"grid", gen.Grid2D(14), order.NDGrid2D, 14},
		{"mesh", gen.IrregularMesh(300, 5, 3, 41), order.MinDegree, 0},
		{"dense", gen.Dense(24), order.Natural, 0},
	} {
		for _, s := range []blocks.Strategy{blocks.StrategyUniform, blocks.StrategyStaged, blocks.StrategyCycled, blocks.StrategyIrregular} {
			plan, err := core.NewPlan(in.m, core.Options{Ordering: in.method, GridDim: in.grid, BlockSize: 8, Blocking: s})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []sched.Assignment{
				plan.ServingAssignment(6),
				{Map: mapping.Cyclic(mapping.Grid{Pr: 2, Pc: 3}, plan.BS.N())},
			} {
				pr := sched.Build(plan.BS, a)
				got, want := procLoads(pr), pairingWalkLoads(pr)
				for p := range want {
					if got[p] != want[p] {
						t.Fatalf("%s/%s: procLoads %v, pairing walk %v", in.name, s, got, want)
					}
				}
			}
		}
	}
}
