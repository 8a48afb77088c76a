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
// non-nil it is called with each operation's start and end time.
func asap(bs *blocks.Structure, flopRate, opOverhead float64, op func(start, end float64)) float64 {
	run := func(start float64, flops int64) float64 {
		end := start + (float64(flops)/flopRate + opOverhead)
		if op != nil {
			op(start, end)
		}
		return end
	}

	nb := 0
	colBase := make([]int, bs.N()+1)
	for j := 0; j < bs.N(); j++ {
		colBase[j] = nb
		nb += len(bs.Cols[j].Blocks)
	}
	colBase[bs.N()] = nb

	idOf := func(i, j int) int {
		col := &bs.Cols[j]
		lo, hi := 0, len(col.Blocks)
		for lo < hi {
			mid := (lo + hi) / 2
			if col.Blocks[mid].I < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return colBase[j] + lo
	}

	ready := make([]float64, nb)   // completion time of each block
	lastMod := make([]float64, nb) // latest finishing modification into it

	var cp float64
	for k := 0; k < bs.N(); k++ {
		col := &bs.Cols[k]
		wk := int64(bs.Part.Width(k))
		// Finalize column k: all of its modifications come from earlier
		// columns, already processed.
		diagID := colBase[k]
		ready[diagID] = run(lastMod[diagID], wk*(wk+1)*(2*wk+1)/6)
		if ready[diagID] > cp {
			cp = ready[diagID]
		}
		for idx := 1; idx < len(col.Blocks); idx++ {
			id := colBase[k] + idx
			r := int64(len(col.Blocks[idx].Rows))
			start := lastMod[id]
			if ready[diagID] > start {
				start = ready[diagID]
			}
			ready[id] = run(start, r*wk*wk)
			if ready[id] > cp {
				cp = ready[id]
			}
		}
		// Propagate column k's modifications.
		for jb := 1; jb < len(col.Blocks); jb++ {
			cj := int64(len(col.Blocks[jb].Rows))
			srcB := ready[colBase[k]+jb]
			for ia := jb; ia < len(col.Blocks); ia++ {
				ri := int64(len(col.Blocks[ia].Rows))
				flops := 2 * ri * cj * wk
				if ia == jb {
					flops = ri * (ri + 1) * wk
				}
				start := ready[colBase[k]+ia]
				if srcB > start {
					start = srcB
				}
				fin := run(start, flops)
				dest := idOf(col.Blocks[ia].I, col.Blocks[jb].I)
				if fin > lastMod[dest] {
					lastMod[dest] = fin
				}
			}
		}
	}
	return cp
}
