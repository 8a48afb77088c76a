package cluster

import (
	"hash/fnv"
	"sort"

	"blockfanout/internal/sparse"
)

// ring is a consistent-hash ring over participant indices. The gateway
// keys it by a job's sparse.PatternHash to pick the primary and replica
// assembly targets: the nodes that collect every block of L and serve
// solves. Consistent hashing keeps the choice stable — the same pattern
// lands on the same nodes across refactor requests, so their warm factor
// state is reused, and a membership change moves only the patterns that
// hashed to the departed node.
type ring struct {
	hs  []uint64 // sorted virtual-point hashes
	idx []int    // hs[i] → participant index
}

// ringVnodes is the virtual-point count per participant. 40 points keeps
// the per-node share of the key space within a few percent of uniform for
// the cluster sizes this package targets (≤ dozens of nodes).
const ringVnodes = 40

// buildRing hashes every id onto the circle. ids are participant names in
// participant-index order; the returned ring resolves hashes back to those
// indices.
func buildRing(ids []string) *ring {
	r := &ring{}
	for i, id := range ids {
		h := fnv1a(id)
		for v := 0; v < ringVnodes; v++ {
			h = sparse.FNVMix(h, uint64(v)+1)
			r.hs = append(r.hs, h)
			r.idx = append(r.idx, i)
		}
	}
	type pt struct {
		h uint64
		i int
	}
	pts := make([]pt, len(r.hs))
	for i := range pts {
		pts[i] = pt{r.hs[i], r.idx[i]}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].h != pts[b].h {
			return pts[a].h < pts[b].h
		}
		return pts[a].i < pts[b].i
	})
	for i := range pts {
		r.hs[i], r.idx[i] = pts[i].h, pts[i].i
	}
	return r
}

// pick walks the ring clockwise from key and returns up to n distinct
// participant indices for which alive reports true. Fewer than n are
// returned only when fewer than n participants are alive.
func (r *ring) pick(key uint64, n int, alive func(int) bool) []int {
	if len(r.hs) == 0 || n <= 0 {
		return nil
	}
	start := sort.Search(len(r.hs), func(i int) bool { return r.hs[i] >= key })
	var out []int
	seen := make(map[int]bool)
	for off := 0; off < len(r.hs) && len(out) < n; off++ {
		i := r.idx[(start+off)%len(r.hs)]
		if seen[i] || !alive(i) {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out
}

// fnv1a is FNV-1a over the bytes of s.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
