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

	"blockfanout/internal/blocks"
	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// planOptions converts a StartJob's plan parameters to core.Options. Node
// and gateway must derive byte-identical plans, so everything that feeds
// core.NewPlan crosses the wire.
func planOptions(sj *wire.StartJob) core.Options {
	return core.Options{
		BlockSize:      int(sj.BlockSize),
		Ordering:       order.Method(sj.Ordering),
		Blocking:       blocks.Strategy(sj.Blocking),
		AmalgThreshold: sj.AmalgThr,
		Exec:           fanout.Mode(sj.Exec),
	}
}

// wireMapping rebuilds a tuned mapping shipped in a StartJob, validating
// dimensions and ranges so a corrupt or mismatched frame cannot index the
// schedule out of bounds. Returns nil when the job carries no tuned map.
func wireMapping(plan *core.Plan, sj *wire.StartJob) (*mapping.Mapping, error) {
	if len(sj.MapI) == 0 && len(sj.MapJ) == 0 {
		return nil, nil
	}
	n := plan.BS.N()
	if len(sj.MapI) != n || len(sj.MapJ) != n {
		return nil, fmt.Errorf("cluster: tuned map sized %d×%d for a %d-panel plan", len(sj.MapI), len(sj.MapJ), n)
	}
	g := mapping.Grid{Pr: int(sj.MapPr), Pc: int(sj.MapPc)}
	if g.P() != int(sj.Procs) {
		return nil, fmt.Errorf("cluster: tuned map grid %d×%d does not cover %d processors", g.Pr, g.Pc, sj.Procs)
	}
	mi := make([]int, n)
	mj := make([]int, n)
	for k := 0; k < n; k++ {
		if int(sj.MapI[k]) >= g.Pr || int(sj.MapJ[k]) >= g.Pc {
			return nil, fmt.Errorf("cluster: tuned map entry %d = (%d,%d) outside grid %d×%d", k, sj.MapI[k], sj.MapJ[k], g.Pr, g.Pc)
		}
		mi[k] = int(sj.MapI[k])
		mj[k] = int(sj.MapJ[k])
	}
	return &mapping.Mapping{Grid: g, MapI: mi, MapJ: mj}, nil
}

// scheduleFromJob derives one participant's schedule for a StartJob: the
// serving tier's static schedule (core.Plan.ServingAssignment), or — when
// the job carries a tuned map — the schedule under that measured-cost
// mapping with no domain override (the gateway's adoption decision
// compared loads under exactly this ownership; see internal/tune). Every
// participant and the gateway derive the same program from the same frame.
func scheduleFromJob(plan *core.Plan, sj *wire.StartJob) (*sched.Program, error) {
	tm, err := wireMapping(plan, sj)
	if err != nil {
		return nil, err
	}
	if tm == nil {
		return sched.Build(plan.BS, plan.ServingAssignment(int(sj.Procs))), nil
	}
	return sched.Build(plan.BS, plan.Assign(tm, 0)), nil
}

// mapSignature digests a StartJob's tuned-map fields so a node can detect
// the mapping changing between runs of the same pattern (gateway adopted a
// remap) and rebuild its cached schedule. FNV-1a; 0 only for the static
// (empty-map) case by construction.
func mapSignature(sj *wire.StartJob) uint64 {
	if len(sj.MapI) == 0 && len(sj.MapJ) == 0 {
		return 0
	}
	h := uint64(sparse.FNVOffset)
	mix := func(v uint64) { h = sparse.FNVMix(h, v) }
	mix(uint64(sj.MapPr)<<16 | uint64(sj.MapPc))
	for _, v := range sj.MapI {
		mix(uint64(v))
	}
	for _, v := range sj.MapJ {
		mix(uint64(v))
	}
	if h == 0 {
		h = 1 // keep 0 reserved for "static"
	}
	return h
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
