package core

import (
	"fmt"
	"math"

	"blockfanout/internal/numeric"
)

// CheckRHS validates one right-hand side against a factor of dimension n:
// exact length and finite entries. Every solve entry point (Solve,
// SolveMany, the service's request check, the cluster node) runs it, so
// malformed input yields an error, never a panic or silent NaN
// propagation. Its messages carry no package prefix because the service
// returns them verbatim in 400 bodies.
func CheckRHS(n int, b []float64) error {
	if len(b) != n {
		return fmt.Errorf("rhs length %d, want %d", len(b), n)
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rhs entry %d is not finite (%g)", i, v)
		}
	}
	return nil
}

// Solve solves A·x = b for the original matrix A. It is SolveMany with one
// right-hand side.
func (f *Factor) Solve(b []float64) ([]float64, error) {
	xs, err := f.SolveMany([][]float64{b})
	if err != nil {
		return nil, err
	}
	return xs[0], nil
}

// SolveParallel solves A·x = b.
//
// Deprecated: it is Solve; every solve runs the one numeric.SolveN sweep.
func (f *Factor) SolveParallel(b []float64) ([]float64, error) { return f.Solve(b) }

// SolveMany solves A·x = b for several right-hand sides in one batched
// sweep over the factor (see numeric.SolveN), returning one solution per
// input. A factor computed under domains sweeps its program's split, one
// lane per domain owner; a sequential factor, or one whose assignment has
// no domains, sweeps on the calling goroutine. Every right-hand side is
// validated (length, finiteness) before any work runs, so a malformed
// vector in a batch fails the whole call cleanly instead of corrupting
// its neighbours' shared sweep.
func (f *Factor) SolveMany(bs [][]float64) ([][]float64, error) {
	for i, b := range bs {
		if err := CheckRHS(f.plan.A.N, b); err != nil {
			return nil, fmt.Errorf("core: rhs %d: %w", i, err)
		}
	}
	pbs := make([][]float64, len(bs))
	for i, b := range bs {
		pbs[i] = f.plan.Perm.Apply(b)
	}
	var sp *numeric.Split
	if f.pr != nil {
		sp = f.pr.Split
	}
	pxs := f.nf.SolveN(pbs, sp)
	for i := range pxs {
		pxs[i] = f.plan.Perm.ApplyInverse(pxs[i])
	}
	return pxs, nil
}

// SolveRefined solves A·x = b and then applies iterative refinement
// (x ← x + A⁻¹(b − A·x)) until the residual's infinity norm drops below tol
// or maxIter refinement steps have run. It returns the solution, the number
// of refinement steps actually taken, and the final residual norm.
// Refinement recovers accuracy lost to round-off in the factorization,
// which matters for ill-conditioned systems.
func (f *Factor) SolveRefined(b []float64, maxIter int, tol float64) (x []float64, iters int, resid float64, err error) {
	if maxIter < 0 {
		return nil, 0, 0, fmt.Errorf("core: negative refinement iteration count %d", maxIter)
	}
	x, err = f.Solve(b)
	if err != nil {
		return nil, 0, 0, err
	}
	a := f.a
	for iters = 0; iters < maxIter; iters++ {
		ax := a.MulVec(x)
		r := make([]float64, len(b))
		worst := 0.0
		for i := range r {
			r[i] = b[i] - ax[i]
			if d := r[i]; d < 0 {
				d = -d
				if d > worst {
					worst = d
				}
			} else if d > worst {
				worst = d
			}
		}
		resid = worst
		if worst <= tol {
			return x, iters, resid, nil
		}
		dx, err2 := f.Solve(r)
		if err2 != nil {
			return nil, iters, resid, err2
		}
		for i := range x {
			x[i] += dx[i]
		}
	}
	resid = a.ResidualNorm(x, b)
	return x, iters, resid, nil
}
