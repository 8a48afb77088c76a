// Package colfan implements the traditional 1-D column fan-out sparse
// Cholesky method the paper's introduction argues against: columns are
// distributed cyclically over the processors, a completed factor column is
// fanned out to every processor owning a column it updates, and receiving
// processors apply the cmod(j,k) updates in data-driven order. It is the
// "first and more traditional approach" baseline — communication volume
// grows linearly in P and the column-level task graph has a long critical
// path — implemented for real with one goroutine per processor, so its
// message counts and results can be compared against the 2-D block method.
package colfan

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"blockfanout/internal/refchol"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// ErrNotPositiveDefinite reports a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("colfan: matrix is not positive definite")

// Symbolic holds explicit per-column factor structures, expanded from the
// supernodal analysis (column j's below-diagonal rows, ascending).
type Symbolic struct {
	N    int
	Ptr  []int64
	Rows []int32
}

// Expand converts a supernodal structure into per-column structures:
// column j of supernode S has rows {j+1..last(S)} ∪ Rows(S).
func Expand(st *symbolic.Structure) *Symbolic {
	n := st.N
	sym := &Symbolic{N: n, Ptr: make([]int64, n+1)}
	var total int64
	for s, sn := range st.Snodes {
		below := int64(len(st.Rows[s]))
		for t := 0; t < sn.Width; t++ {
			j := sn.First + t
			sym.Ptr[j+1] = int64(sn.Width-1-t) + below
			total += sym.Ptr[j+1]
		}
	}
	for j := 0; j < n; j++ {
		sym.Ptr[j+1] += sym.Ptr[j]
	}
	sym.Rows = make([]int32, total)
	for s, sn := range st.Snodes {
		for t := 0; t < sn.Width; t++ {
			j := sn.First + t
			p := sym.Ptr[j]
			for u := t + 1; u < sn.Width; u++ {
				sym.Rows[p] = int32(sn.First + u)
				p++
			}
			for _, r := range st.Rows[s] {
				sym.Rows[p] = int32(r)
				p++
			}
		}
	}
	return sym
}

// Struct returns column j's below-diagonal rows.
func (s *Symbolic) Struct(j int) []int32 { return s.Rows[s.Ptr[j]:s.Ptr[j+1]] }

// NNZ returns the below-diagonal entry count.
func (s *Symbolic) NNZ() int64 { return int64(len(s.Rows)) }

// Stats reports the parallel run's communication.
type Stats struct {
	Procs    int
	Messages int64
	Bytes    int64
}

// Run factors a (already permuted/postordered) with the column fan-out
// method on p goroutine-processors under the cyclic column mapping
// owner(j) = j mod p. The factor's per-column rows are sym's own slices.
func Run(a *sparse.Matrix, sym *Symbolic, p int) (*refchol.Factor, Stats, error) {
	if a.N != sym.N {
		return nil, Stats{}, fmt.Errorf("colfan: matrix n=%d vs symbolic n=%d", a.N, sym.N)
	}
	n := a.N
	f := &refchol.Factor{
		N:    n,
		Diag: make([]float64, n),
		Rows: make([][]int32, n),
		Vals: make([][]float64, n),
	}
	val := make([]float64, len(sym.Rows))
	// Scatter A into the factor skeleton.
	for j := 0; j < n; j++ {
		lo, hi := sym.Ptr[j], sym.Ptr[j+1]
		f.Rows[j], f.Vals[j] = sym.Rows[lo:hi:hi], val[lo:hi:hi]
		f.Diag[j] = a.Val[a.ColPtr[j]]
		st := f.Rows[j]
		for q := a.ColPtr[j] + 1; q < a.ColPtr[j+1]; q++ {
			r := int32(a.RowInd[q])
			k := sort.Search(len(st), func(t int) bool { return st[t] >= r })
			if k >= len(st) || st[k] != r {
				return nil, Stats{}, fmt.Errorf("colfan: A(%d,%d) outside structure", r, j)
			}
			f.Vals[j][k] = a.Val[q]
		}
	}

	// nmods[j]: number of columns k<j updating j. consumers[k]: distinct
	// processors owning a column in struct(k). Per-proc incoming counts
	// size the channels so sends never block.
	nmods := make([]int32, n)
	consumers := make([][]int32, n)
	incoming := make([]int, p)
	procMark := make([]int, p)
	for i := range procMark {
		procMark[i] = -1
	}
	var stats Stats
	for k := 0; k < n; k++ {
		st := sym.Struct(k)
		for _, r := range st {
			nmods[r]++
		}
		for _, r := range st {
			o := int(r) % p
			if procMark[o] != k {
				procMark[o] = k
				consumers[k] = append(consumers[k], int32(o))
				if o != k%p {
					incoming[o]++
					stats.Messages++
					stats.Bytes += int64(len(st)+1)*8 + 16
				}
			}
		}
	}
	stats.Procs = p

	inboxes := make([]chan int32, p)
	for q := 0; q < p; q++ {
		inboxes[q] = make(chan int32, incoming[q]+1)
	}

	abort := make(chan struct{})
	var abortOnce sync.Once
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}

	var wg sync.WaitGroup
	wg.Add(p)
	for q := 0; q < p; q++ {
		go func(me int32) {
			defer wg.Done()
			runProc(me, int32(p), f, nmods, consumers, inboxes, abort, fail)
		}(int32(q))
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return f, stats, nil
}

// runProc executes one processor of the column fan-out method. Column
// values of owned columns are touched only by their owner; completed
// columns are read-only (happens-before via channel delivery).
func runProc(me, p int32, f *refchol.Factor, nmods []int32, consumers [][]int32,
	inboxes []chan int32, abort chan struct{}, fail func(error)) {

	n := int32(f.N)
	remaining := 0
	for j := me; j < n; j += p {
		remaining++
	}
	if remaining == 0 {
		return
	}
	var local []int32

	// complete performs cdiv(j) and fans column j out.
	complete := func(j int32) {
		d := f.Diag[j]
		if d <= 0 {
			fail(fmt.Errorf("%w (column %d)", ErrNotPositiveDefinite, j))
			return
		}
		d = math.Sqrt(d)
		f.Diag[j] = d
		vals := f.Vals[j]
		for t := range vals {
			vals[t] /= d
		}
		remaining--
		for _, c := range consumers[j] {
			if c == me {
				local = append(local, j)
			} else {
				inboxes[c] <- j
			}
		}
	}

	// handle applies cmod(j,k) for every owned column j updated by k: the
	// rows of struct(k) beyond j are located in struct(j) by a single
	// merge scan (fill containment guarantees they are all present).
	handle := func(k int32) bool {
		st, vals := f.Rows[k], f.Vals[k]
		for s, j := range st {
			if j%p != me {
				continue
			}
			ljk := vals[s]
			f.Diag[j] -= ljk * ljk
			tj, vj := f.Rows[j], f.Vals[j]
			ti := 0
			for u := s + 1; u < len(st); u++ {
				r := st[u]
				for ti < len(tj) && tj[ti] < r {
					ti++
				}
				if ti >= len(tj) || tj[ti] != r {
					fail(fmt.Errorf("colfan: row %d of column %d missing from column %d", r, k, j))
					return false
				}
				vj[ti] -= ljk * vals[u]
				ti++
			}
			nmods[j]--
			if nmods[j] == 0 {
				complete(j)
			}
		}
		return true
	}

	// Seed: owned columns with no incoming updates.
	for j := me; j < n; j += p {
		if nmods[j] == 0 {
			complete(j)
		}
	}

	for remaining > 0 {
		var k int32
		if len(local) > 0 {
			k = local[len(local)-1]
			local = local[:len(local)-1]
		} else {
			select {
			case k = <-inboxes[me]:
			case <-abort:
				return
			}
		}
		if !handle(k) {
			return
		}
	}
}
