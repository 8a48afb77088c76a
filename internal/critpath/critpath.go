// Package critpath computes the critical path of the block-operation DAG —
// the longest chain of dependent BFAC/BDIV/BMOD operations — under the
// machine's per-operation cost model but with unlimited processors and free
// communication. The paper (§5) uses this bound to argue that, after the
// mapping heuristics are applied, want of concurrency is not what limits
// performance: e.g. BCSSTK15 on 100 processors should admit ~50% higher
// performance than achieved.
package critpath

import "blockfanout/internal/blocks"

// Length returns the critical-path execution time in seconds, charging each
// block operation flops/flopRate + opOverhead.
func Length(bs *blocks.Structure, flopRate, opOverhead float64) float64 {
	return asap(bs, flopRate, opOverhead, nil)
}

// asap runs the block-operation DAG under an ASAP schedule (unlimited
// processors, free communication), charging each operation
// flops/flopRate + opOverhead, and returns the critical path. When op is
// non-nil it is called with each operation's start and end time. The
// operations, their flop counts and their destinations come from the
// structure's DAG tables.
func asap(bs *blocks.Structure, flopRate, opOverhead float64, op func(start, end float64)) float64 {
	run := func(start float64, flops int64) float64 {
		end := start + (float64(flops)/flopRate + opOverhead)
		if op != nil {
			op(start, end)
		}
		return end
	}

	ready := make([]float64, bs.NBlocks)   // completion time of each block
	lastMod := make([]float64, bs.NBlocks) // latest finishing modification into it

	var cp float64
	for k := range bs.Cols {
		m := len(bs.Cols[k].Blocks)
		// Finalize column k: all of its modifications come from earlier
		// columns, already processed. The diagonal block's BFAC comes
		// first, then each off-diagonal block's BDIV.
		diagID := bs.BlockID(k, 0)
		for id := diagID; id < diagID+int32(m); id++ {
			start := lastMod[id]
			if id != diagID && ready[diagID] > start {
				start = ready[diagID]
			}
			ready[id] = run(start, bs.OwnOpFlops[id])
			if ready[id] > cp {
				cp = ready[id]
			}
		}
		// Propagate column k's modifications.
		for jb := 1; jb < m; jb++ {
			srcB := ready[diagID+int32(jb)]
			for ia := jb; ia < m; ia++ {
				start := ready[diagID+int32(ia)]
				if srcB > start {
					start = srcB
				}
				fin := run(start, bs.ModFlops(k, ia, jb))
				dest := bs.ModDestID(k, ia, jb)
				if fin > lastMod[dest] {
					lastMod[dest] = fin
				}
			}
		}
	}
	return cp
}
