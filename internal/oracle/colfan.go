package oracle

import (
	"fmt"
	"sync"

	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// Volume holds the remote traffic of a 1-D column method.
type Volume struct {
	Messages int64
	Bytes    int64
}

// ColumnFanOut factors a (permuted, postordered; analysis st) with the
// traditional 1-D column fan-out method on p goroutine-processors under
// the cyclic column mapping owner(j) = j mod p: a completed factor column
// is fanned out to every processor owning a column it updates, and the
// receivers apply the cmod(j,k) updates in data-driven order. It returns
// the executed remote traffic; each message carries the column and a
// 16-byte header.
func ColumnFanOut(a *sparse.Matrix, st *symbolic.Structure, p int) (*Factor, Volume, error) {
	if err := checkN(a, st); err != nil {
		return nil, Volume{}, err
	}
	n := a.N
	// The factor skeleton holds A: column j of supernode S has rows
	// snodeIndex(S)[t+1:], the same lists the supernodal methods harvest.
	f := newFactor(n)
	for s, sn := range st.Snodes {
		idx := snodeIndex(st, s)
		buf := make([]float64, len(idx)*sn.Width)
		if err := scatter(a, sn, idx, buf, sn.Width); err != nil {
			return nil, Volume{}, err
		}
		f.harvest(sn, idx, buf, sn.Width)
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
	var vol Volume
	for k := 0; k < n; k++ {
		rows := f.Rows[k]
		for _, r := range rows {
			nmods[r]++
		}
		for _, r := range rows {
			o := int(r) % p
			if procMark[o] != k {
				procMark[o] = k
				consumers[k] = append(consumers[k], int32(o))
				if o != k%p {
					incoming[o]++
					vol.Messages++
					vol.Bytes += int64(len(rows)+1)*8 + 16
				}
			}
		}
	}

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
		return nil, vol, firstErr
	}
	return f, vol, nil
}

// runProc executes one processor of the column fan-out method. Column
// values of owned columns are touched only by their owner; completed
// columns are read-only (happens-before via channel delivery).
func runProc(me, p int32, f *Factor, nmods []int32, consumers [][]int32,
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
		d, err := pivot(f.Diag[j], -1, int(j))
		if err != nil {
			fail(err)
			return
		}
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
					fail(fmt.Errorf("oracle: row %d of column %d missing from column %d", r, k, j))
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

// Column1D counts the traffic of the column fan-out method on p
// processors under the cyclic column mapping, without executing it — the
// paper's 1-D baseline whose communication volume grows linearly in P
// [George, Liu & Ng]. Each completed factor column j is sent to every
// distinct processor other than its owner that owns a column j updates,
// i.e. the owners of the row indices of L(:,j); the message carries the
// column's nonzeros (no header).
func Column1D(st *symbolic.Structure, p int) Volume {
	var v Volume
	mark := make([]int, p)
	for i := range mark {
		mark[i] = -1
	}
	for s, sn := range st.Snodes {
		idx := snodeIndex(st, s)
		for t := 0; t < sn.Width; t++ {
			j := sn.First + t
			mark[j%p] = j // updates kept on the owner are not messages
			var consumers int64
			for _, r := range idx[t+1:] {
				if q := r % p; mark[q] != j {
					mark[q] = j
					consumers++
				}
			}
			v.Messages += consumers
			v.Bytes += consumers * int64(len(idx)-t) * 8
		}
	}
	return v
}
