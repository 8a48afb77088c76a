// Package cluster turns the block fan-out method into a real multi-node
// system: worker nodes each run the work-stealing engine over their slice
// of the block→processor mapping and exchange completed block columns over
// TCP (internal/cluster/wire), while a gateway shards factor ownership by
// sparsity pattern, tracks membership, and drives buddy failover when a
// node dies mid-factorization.
//
// The distribution model is the paper's §2.3 fan-out method lifted one
// level: the schedule's virtual processors are partitioned across nodes by
// the speed-aware greedy heuristic (mapping.GreedyWeighted over per-proc
// flop loads), each node executes exactly the blocks its processors own,
// and a completed block is shipped — once per consumer node, the
// aggregated analogue of the simulator's per-processor fan-out — to every
// node owning a processor that needs it, plus the assembly targets that
// collect the whole factor for solves.
//
// Failure handling realizes machine.FaultPlan's buddy protocol: when a
// node dies, machine.Buddy reassigns its processors to the next surviving
// node, the epoch counter bumps, and every survivor restarts from its
// completed-block frontier — blocks whose final data a node already holds
// are predone (fanout.Restriction), everything else reverts to matrix
// values (numeric.Factor.ReloadWhere) and is re-executed.
package cluster

import (
	"fmt"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// planOptions converts a StartJob's plan parameters to core.Options. Node
// and gateway must derive byte-identical plans, so everything that feeds
// core.NewPlan crosses the wire: the gateway plans with default options
// apart from BlockSize and Exec, and Exec picks an engine, not a plan
// (nodes always run the restricted executor).
func planOptions(sj *wire.StartJob) core.Options {
	return core.Options{BlockSize: int(sj.BlockSize)}
}

// procLoads returns each virtual processor's flop load under the
// owner-computes model: the flops of every operation whose destination
// block it owns (Block.Flops: the completing BFAC/BDIV plus every BMOD
// into the block). This is the weight vector the gateway feeds
// mapping.GreedyWeighted to split processors across nodes of unequal
// speed.
func procLoads(pr *sched.Program) []int64 {
	load := make([]int64, pr.NProc)
	for id, o := range pr.Owner {
		load[o] += pr.Cols[pr.ColOf[id]].Blocks[pr.IdxOf[id]].Flops
	}
	return load
}

// matrixToWire flattens a matrix's structure for a StartJob frame.
func matrixToWire(m *sparse.Matrix) (colptr, rowind []uint32) {
	colptr = make([]uint32, len(m.ColPtr))
	for i, v := range m.ColPtr {
		colptr[i] = uint32(v)
	}
	rowind = make([]uint32, len(m.RowInd))
	for i, v := range m.RowInd {
		rowind[i] = uint32(v)
	}
	return colptr, rowind
}

// wireToMatrix rebuilds and validates the matrix carried by a StartJob.
func wireToMatrix(sj *wire.StartJob) (*sparse.Matrix, error) {
	m := &sparse.Matrix{
		N:      int(sj.N),
		ColPtr: make([]int, len(sj.ColPtr)),
		RowInd: make([]int, len(sj.RowInd)),
		Val:    sj.Val,
	}
	for i, v := range sj.ColPtr {
		m.ColPtr[i] = int(v)
	}
	for i, v := range sj.RowInd {
		m.RowInd[i] = int(v)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: StartJob matrix invalid: %w", err)
	}
	return m, nil
}

// permuteVals routes A-order values onto the plan's permuted pattern, the
// layout numeric.Factor.Reload/ReloadWhere expect.
func permuteVals(plan *core.Plan, values []float64) []float64 {
	pv := make([]float64, len(values))
	for q, src := range plan.ValMap {
		pv[q] = values[src]
	}
	return pv
}
