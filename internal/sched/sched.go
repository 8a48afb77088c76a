// Package sched binds the block structure's operation DAG to a
// block-to-processor assignment: block ownership, message sizes, consumer
// (fan-out destination) lists and the communication traffic they imply.
// The DAG itself — block ids, modification counts, BMOD destinations,
// seeds and the pairing table — belongs to package blocks and is shared by
// every program built over one structure. Both the real parallel executor
// (package fanout) and the multicomputer simulator (package machine) run
// the identical protocol over a program, which is what makes the simulated
// timings faithful to the executed algorithm.
package sched

import (
	"blockfanout/internal/blocks"
	"blockfanout/internal/domains"
	"blockfanout/internal/mapping"
	"blockfanout/internal/numeric"
)

// BlockOwner is any full block-to-processor map (e.g. mapping.Arbitrary,
// the §2.4 "most general form").
type BlockOwner interface {
	Owner(i, j int) int
	P() int
}

// Assignment combines the 2-D mapping of the root portion with an optional
// 1-D domain assignment (§2.3): blocks in a domain-owned panel column all
// live on the domain's processor; every other block follows the 2-D map.
// A non-nil Override replaces the Cartesian-product map entirely (domains
// still win for their panels).
type Assignment struct {
	Map      *mapping.Mapping
	Dom      *domains.Domains // optional; nil disables domains
	Override BlockOwner       // optional; replaces Map when set
}

// Owner returns the processor owning block (i,j).
func (a Assignment) Owner(i, j int) int {
	if a.Dom != nil && a.Dom.PanelOwner[j] >= 0 {
		return a.Dom.PanelOwner[j]
	}
	if a.Override != nil {
		return a.Override.Owner(i, j)
	}
	return a.Map.Owner(i, j)
}

// P returns the processor count.
func (a Assignment) P() int {
	if a.Override != nil {
		return a.Override.P()
	}
	return a.Map.Grid.P()
}

// MsgHeaderBytes models the per-message header the fan-out method attaches
// to a block (block coordinates, row list) when it is sent.
const MsgHeaderBytes = 64

// Program is the block fan-out schedule of one assignment: the block
// structure's operation DAG (embedded, and shared by every program built
// over the structure) plus what the assignment decides — block ownership,
// message sizes, fan-out destinations, and the traffic they imply.
type Program struct {
	*blocks.Structure
	NProc int
	// Dom is the assignment's §2.3 domain selection (nil without domains),
	// and Split the triangular sweep's lane schedule derived from it: one
	// lane per domain owner, nil for a program without domains.
	Dom   *domains.Domains
	Split *numeric.Split

	Owner     []int32   // block id → owning processor
	Bytes     []int64   // message size when the block is sent
	Consumers [][]int32 // deduped processors needing the block as a source

	// OwnedCount[p] counts blocks owned by p.
	OwnedCount []int
	// TotalMessages is the total remote block transfer count.
	TotalMessages int64
	// TotalBytes is the total remote communication volume.
	TotalBytes int64
}

// Build precomputes the program for a block structure under an assignment.
func Build(bs *blocks.Structure, a Assignment) *Program {
	nb := bs.NBlocks
	pr := &Program{
		Structure:  bs,
		NProc:      a.P(),
		Dom:        a.Dom,
		Split:      numeric.NewSplit(bs, a.Dom),
		Owner:      make([]int32, nb),
		Bytes:      make([]int64, nb),
		Consumers:  make([][]int32, nb),
		OwnedCount: make([]int, a.P()),
	}
	for j := range bs.Cols {
		w := bs.Part.Width(j)
		for idx := range bs.Cols[j].Blocks {
			id := bs.BlockID(j, idx)
			b := &bs.Cols[j].Blocks[idx]
			pr.Owner[id] = int32(a.Owner(b.I, j))
			pr.OwnedCount[pr.Owner[id]]++
			pr.Bytes[id] = int64(len(b.Rows))*int64(w)*8 + MsgHeaderBytes
		}
	}

	// Consumer lists. procMark/gen implement an O(1)-reset membership set.
	procMark := make([]int, pr.NProc)
	for i := range procMark {
		procMark[i] = -1
	}
	gen := 0
	addConsumer := func(id int32, p int32) {
		if procMark[p] != gen {
			procMark[p] = gen
			pr.Consumers[id] = append(pr.Consumers[id], p)
		}
	}
	for k := range bs.Cols {
		m := len(bs.Cols[k].Blocks)
		diagID := bs.BlockID(k, 0)
		// The factored diagonal block is needed by the owner of every
		// off-diagonal block in its column (for their BDIVs).
		gen++
		for idx := 1; idx < m; idx++ {
			addConsumer(diagID, pr.Owner[diagID+int32(idx)])
		}
		// Completed off-diagonal blocks pair up within the column: each
		// pairing is consumed by the owner of its destination.
		for ia := 1; ia < m; ia++ {
			gen++
			for jb := 1; jb < m; jb++ {
				addConsumer(diagID+int32(ia), pr.Owner[bs.ModDestID(k, ia, jb)])
			}
		}
	}

	for id, cs := range pr.Consumers {
		for _, p := range cs {
			if p != pr.Owner[id] {
				pr.TotalMessages++
				pr.TotalBytes += pr.Bytes[id]
			}
		}
	}
	return pr
}
