package blocks

import (
	"fmt"
	"strings"

	"blockfanout/internal/symbolic"
)

// Strategy identifies one of the package's partitioning policies. Plans
// record the strategy they were built with so that cached plans with
// different blocking never collide (see core/plancache).
type Strategy uint8

const (
	// StrategyUniform is the paper's fixed partition: every supernode is
	// split into balanced panels of width ≤ B (NewPartition).
	StrategyUniform Strategy = iota
	// StrategyStaged varies the block size between the early and late
	// stages of the factorization (§5, NewPartitionStaged).
	StrategyStaged
	// StrategyCycled cycles panel widths with the panel index (§5,
	// NewPartitionCycled).
	StrategyCycled
	// StrategyIrregular is the structure-aware policy: supernode
	// amalgamation followed by supernode-aligned variable-width panels
	// (NewPartitionIrregular).
	StrategyIrregular
)

func (s Strategy) String() string {
	switch s {
	case StrategyUniform:
		return "uniform"
	case StrategyStaged:
		return "staged"
	case StrategyCycled:
		return "cycled"
	case StrategyIrregular:
		return "irregular"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// ParseStrategy parses a strategy name as accepted by the spchol
// -blocking flag.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "uniform":
		return StrategyUniform, nil
	case "staged":
		return StrategyStaged, nil
	case "cycled":
		return StrategyCycled, nil
	case "irregular":
		return StrategyIrregular, nil
	}
	return 0, fmt.Errorf("blocks: unknown blocking strategy %q (want uniform, staged, cycled or irregular)", name)
}

// IrregularConfig tunes NewPartitionIrregular.
type IrregularConfig struct {
	// MaxPanel caps panel width. Supernodes at or under the cap become a
	// single panel; only wider ones are split. 0 picks 48 (the paper's B).
	MaxPanel int
	// Quantum aligns the widths of split panels: interior split widths are
	// rounded to multiples of it, keeping panels sized to the packed
	// kernels (4×8 tiles of C and 8-column BDIV chunks, so multiples of 8
	// keep every chunk whole). 0 picks 8.
	Quantum int
	// RootDepth marks the sequential tail of the elimination forest:
	// oversized supernodes at forest depth < RootDepth split at half
	// MaxPanel, multiplying the independent blocks where the critical path
	// is narrowest. The rule is off by default (≤0): the root supernodes'
	// rows appear in almost every column, so halving their panels roughly
	// doubles the row-block count of the whole factor — measured on the
	// BCSSTK31-class CI problems it costs ~20% end-to-end on
	// goroutine-processors, which pay per-block overhead but nothing for
	// the extra concurrency. Enable it only for machine-model simulations
	// of real distributed memories, where the added overlap can win.
	RootDepth int
}

func (cfg IrregularConfig) withDefaults() IrregularConfig {
	if cfg.MaxPanel == 0 {
		cfg.MaxPanel = 48
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 8
	}
	return cfg
}

// NewPartitionIrregular places panel boundaries at supernode boundaries and
// splits only oversized supernodes, producing variable-width panels driven
// by the matrix structure rather than a fixed stride. The structure st is
// expected to come from an amalgamating Analyze (see
// symbolic.RelativeAmalgamation); amalgamation is what keeps the "whole
// supernode = one panel" rule from degenerating into width-1 panels on
// minimum-degree orderings.
//
// Split widths are chosen per supernode: the target is MaxPanel (halved for
// supernodes within RootDepth of a forest root when that rule is enabled),
// and split widths are balanced and snapped to Quantum multiples so the
// register-tiled kernels run full tiles.
func NewPartitionIrregular(st *symbolic.Structure, cfg IrregularConfig) (*Partition, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxPanel < 1 {
		return nil, fmt.Errorf("blocks: irregular MaxPanel %d < 1", cfg.MaxPanel)
	}
	if cfg.Quantum < 1 {
		return nil, fmt.Errorf("blocks: irregular Quantum %d < 1", cfg.Quantum)
	}
	part := &Partition{B: cfg.MaxPanel, PanelOf: make([]int, st.N)}
	part.Start = append(part.Start, 0)
	for s, sn := range st.Snodes {
		t := cfg.target(st, s)
		chunks := (sn.Width + t - 1) / t
		col := sn.First
		left := sn.Width
		for c := chunks; c >= 1; c-- {
			w := left
			if c > 1 {
				// Balanced width, snapped to the quantum, kept feasible:
				// every remaining chunk must stay within (0, t].
				w = roundQuantum(left/c, cfg.Quantum)
				if lo := left - (c-1)*t; w < lo {
					w = lo
				}
				if w < 1 {
					w = 1
				}
				if w > t {
					w = t
				}
				if hi := left - (c - 1); w > hi {
					w = hi
				}
			}
			col += w
			left -= w
			part.Start = append(part.Start, col)
			part.SnodeOf = append(part.SnodeOf, s)
		}
	}
	for p := 0; p < part.N(); p++ {
		for j := part.Start[p]; j < part.Start[p+1]; j++ {
			part.PanelOf[j] = p
		}
	}
	return part, nil
}

// target picks the split target width for supernode s.
func (cfg IrregularConfig) target(st *symbolic.Structure, s int) int {
	w := st.Snodes[s].Width
	if w <= cfg.MaxPanel {
		return w // whole supernode stays one panel
	}
	t := cfg.MaxPanel
	if cfg.RootDepth > 0 && st.Depth[s] < cfg.RootDepth {
		t = cfg.MaxPanel / 2
	}
	if t >= cfg.Quantum {
		t -= t % cfg.Quantum
	}
	if t < 1 {
		t = 1
	}
	return t
}

// roundQuantum rounds x to the nearest multiple of q (halves down).
func roundQuantum(x, q int) int {
	return (x + q/2) / q * q
}
