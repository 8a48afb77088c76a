package oracle

import (
	"fmt"

	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

// LeftLooking factors the permuted, postordered matrix a (analysis st)
// supernode by supernode: each panel gathers (pulls) the updates of all
// earlier supernodes whose structure reaches into its columns, then
// factors its pivot block densely.
func LeftLooking(a *sparse.Matrix, st *symbolic.Structure) (*Factor, error) {
	if err := checkN(a, st); err != nil {
		return nil, err
	}
	ns := len(st.Snodes)

	// Panel of supernode S: rows snodeIndex(S), width |cols(S)|, row-major.
	panels := make([][]float64, ns)
	idxs := make([][]int, ns)
	for s, sn := range st.Snodes {
		idxs[s] = snodeIndex(st, s)
		panels[s] = make([]float64, len(idxs[s])*sn.Width)
		if err := scatter(a, sn, idxs[s], panels[s], sn.Width); err != nil {
			return nil, err
		}
	}

	// updaters[S] lists the earlier supernodes whose row structure enters
	// S's column range, with the position where it enters.
	type upd struct {
		src int
		lo  int // first index in Rows(src) with row ≥ first(S)
	}
	updaters := make([][]upd, ns)
	for d := 0; d < ns; d++ {
		rows := st.Rows[d]
		for lo := 0; lo < len(rows); {
			s := st.SnodeOf[rows[lo]]
			updaters[s] = append(updaters[s], upd{src: d, lo: lo})
			last := st.Snodes[s].Last()
			hi := lo + 1
			for hi < len(rows) && rows[hi] <= last {
				hi++
			}
			lo = hi
		}
	}

	f := newFactor(a.N)
	for s, sn := range st.Snodes {
		w := sn.Width
		idx := idxs[s]
		panel := panels[s]
		// Pull updates.
		for _, u := range updaters[s] {
			wD := st.Snodes[u.src].Width
			drows := st.Rows[u.src]
			dpanel := panels[u.src]
			// Split the source rows: [u.lo, mid) fall inside S's columns
			// (they index S's columns); [u.lo, end) are the target rows.
			mid := u.lo
			for mid < len(drows) && drows[mid] <= sn.Last() {
				mid++
			}
			// Local positions of the target rows within S's panel.
			for i := u.lo; i < len(drows); i++ {
				gi := drows[i]
				li := localIndex(idx, gi)
				if li < 0 {
					return nil, fmt.Errorf("oracle: update row %d of supernode %d missing from %d", gi, u.src, s)
				}
				// Row gi of the source panel (offset by the diagonal
				// block): position wD + i in the source panel rows.
				srcI := dpanel[(wD+i)*wD : (wD+i+1)*wD]
				for j := u.lo; j < mid && drows[j] <= gi; j++ {
					lc := drows[j] - sn.First
					srcJ := dpanel[(wD+j)*wD : (wD+j+1)*wD]
					var sum float64
					for k := 0; k < wD; k++ {
						sum += srcI[k] * srcJ[k]
					}
					panel[li*w+lc] -= sum
				}
			}
		}
		// Dense partial factorization of the panel: Cholesky of the w×w
		// leading block, then the triangular solve for the below rows.
		r := len(idx)
		for k := 0; k < w; k++ {
			d := panel[k*w+k]
			for t := 0; t < k; t++ {
				v := panel[k*w+t]
				d -= v * v
			}
			d, err := pivot(d, s, sn.First+k)
			if err != nil {
				return nil, err
			}
			panel[k*w+k] = d
			inv := 1 / d
			for i := k + 1; i < r; i++ {
				v := panel[i*w+k]
				for t := 0; t < k; t++ {
					v -= panel[i*w+t] * panel[k*w+t]
				}
				panel[i*w+k] = v * inv
			}
		}
		f.harvest(sn, idx, panel, w)
	}
	return f, nil
}

// Multifrontal factors the permuted, postordered matrix a (analysis st):
// each supernode assembles a dense frontal matrix from the original
// entries and its children's update matrices (extend-add), factors its
// pivot columns densely, and passes the Schur complement up the supernode
// elimination forest.
func Multifrontal(a *sparse.Matrix, st *symbolic.Structure) (*Factor, error) {
	if err := checkN(a, st); err != nil {
		return nil, err
	}
	f := newFactor(a.N)
	// pend[c] is child c's Schur complement waiting for its parent: a
	// dense lower-triangular matrix over st.Rows[c], row-major.
	pend := make(map[int][]float64, len(st.Snodes))
	children := make([][]int, len(st.Snodes))
	for s, p := range st.Parent {
		if p >= 0 {
			children[p] = append(children[p], s)
		}
	}

	for s, sn := range st.Snodes {
		w := sn.Width
		idx := snodeIndex(st, s)
		r := len(idx)
		front := make([]float64, r*r)
		if err := scatter(a, sn, idx, front, r); err != nil {
			return nil, err
		}
		// Extend-add the children's update matrices.
		for _, c := range children[s] {
			u := pend[c]
			delete(pend, c)
			m := len(st.Rows[c])
			loc := make([]int, m)
			for i, g := range st.Rows[c] {
				loc[i] = localIndex(idx, g)
				if loc[i] < 0 {
					return nil, fmt.Errorf("oracle: update row %d of child %d missing from front %d", g, c, s)
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					front[loc[i]*r+loc[j]] += u[i*m+j]
				}
			}
		}

		// Partial dense factorization of the leading w columns.
		for k := 0; k < w; k++ {
			d, err := pivot(front[k*r+k], s, sn.First+k)
			if err != nil {
				return nil, err
			}
			front[k*r+k] = d
			inv := 1 / d
			for i := k + 1; i < r; i++ {
				front[i*r+k] *= inv
			}
			for i := k + 1; i < r; i++ {
				lik := front[i*r+k]
				if lik == 0 {
					continue
				}
				rowI := front[i*r:]
				for j := k + 1; j <= i; j++ {
					rowI[j] -= lik * front[j*r+k]
				}
			}
		}
		f.harvest(sn, idx, front, r)

		// Push the Schur complement for the parent.
		if m := r - w; m > 0 {
			u := make([]float64, m*m)
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					u[i*m+j] = front[(w+i)*r+(w+j)]
				}
			}
			pend[s] = u
		}
	}
	if len(pend) != 0 {
		return nil, fmt.Errorf("oracle: %d unconsumed update matrices", len(pend))
	}
	return f, nil
}
