package machine

import "blockfanout/internal/sched"

// Policy selects how a processor orders the blocks waiting in its receive
// queue. The paper's block fan-out code is purely data-driven (FIFO, §2.3);
// its §5 discussion conjectures that dynamic scheduling "more sensitive to
// some measures of priority of tasks" could reclaim idle time — CritPath
// implements that conjecture using static critical-path priorities.
type Policy int

const (
	// FIFO processes received blocks in arrival order (the paper's code).
	FIFO Policy = iota
	// CritPath processes the pending block whose downstream dependency
	// chain is longest first.
	CritPath
)

func (p Policy) String() string {
	if p == CritPath {
		return "critpath"
	}
	return "fifo"
}

// Priorities computes, for every block, the length (in seconds under the
// cost model) of the longest chain of operations that depends on the block
// being available. Blocks of column K feed destinations in strictly later
// columns, so a single reverse sweep suffices.
func Priorities(pr *sched.Program, cfg Config) []float64 {
	cost := func(flops int64) float64 {
		return float64(flops)/cfg.FlopRate + cfg.OpOverhead
	}
	level := make([]float64, pr.NBlocks)

	for k := pr.N() - 1; k >= 0; k-- {
		col := &pr.Cols[k]
		// Off-diagonal blocks: their completion feeds BMODs into later
		// columns; a mod finishing feeds the destination's own op and
		// everything after it.
		for idx := 1; idx < len(col.Blocks); idx++ {
			id := pr.BlockID(k, idx)
			best := 0.0
			for j := 1; j < len(col.Blocks); j++ {
				dest := pr.ModDestID(k, idx, j)
				v := cost(pr.ModFlops(k, idx, j)) + cost(pr.OwnOpFlops[dest]) + level[dest]
				if v > best {
					best = v
				}
			}
			level[id] = best
		}
		// Diagonal block: enables the BDIVs of its column.
		diag := pr.BlockID(k, 0)
		best := 0.0
		for idx := 1; idx < len(col.Blocks); idx++ {
			id := pr.BlockID(k, idx)
			v := cost(pr.OwnOpFlops[id]) + level[id]
			if v > best {
				best = v
			}
		}
		level[diag] = best
	}
	return level
}
