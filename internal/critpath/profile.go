package critpath

import (
	"sort"

	"blockfanout/internal/blocks"
)

// Profile characterizes the concurrency available in the block-operation
// DAG under an ASAP (unlimited processors, free communication) schedule:
// how many block operations run simultaneously over time. The paper's §5
// uses this kind of analysis to argue that, while its problems "do not
// admit a large surplus of concurrency, there should be enough to keep the
// processors occupied".
type Profile struct {
	CriticalPath float64
	MaxWidth     int     // peak number of concurrent operations
	AvgWidth     float64 // time-averaged concurrency
	// Curve samples the concurrency over [0, CriticalPath] at uniform
	// steps (len(Curve) buckets, mean width per bucket).
	Curve []float64
}

// ComputeProfile runs the ASAP schedule and returns the concurrency
// profile with the given number of curve buckets.
func ComputeProfile(bs *blocks.Structure, flopRate, opOverhead float64, buckets int) Profile {
	if buckets < 1 {
		buckets = 1
	}
	// Each operation is +1 width at its start and −1 at its end.
	type event struct {
		t     float64
		delta int
	}
	var evs []event
	cp := asap(bs, flopRate, opOverhead, func(start, end float64) {
		evs = append(evs, event{start, 1}, event{end, -1})
	})

	p := Profile{CriticalPath: cp, Curve: make([]float64, buckets)}
	if cp <= 0 {
		return p
	}
	// Sweep the events in time order, integrating width over time.
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].delta < evs[b].delta // ends before starts at ties
	})
	width := 0
	prev := 0.0
	var area float64
	bucket := cp / float64(buckets)
	for _, e := range evs {
		if e.t > prev && width > 0 {
			area += float64(width) * (e.t - prev)
			// Spread into curve buckets.
			b0 := int(prev / bucket)
			b1 := int(e.t / bucket)
			if b1 >= buckets {
				b1 = buckets - 1
			}
			for b := b0; b <= b1; b++ {
				lo := float64(b) * bucket
				hi := lo + bucket
				if prev > lo {
					lo = prev
				}
				if e.t < hi {
					hi = e.t
				}
				if hi > lo {
					p.Curve[b] += float64(width) * (hi - lo) / bucket
				}
			}
		}
		prev = e.t
		width += e.delta
		if width > p.MaxWidth {
			p.MaxWidth = width
		}
	}
	p.AvgWidth = area / cp
	return p
}
