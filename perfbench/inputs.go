package main

import (
	"bytes"
	"encoding/json"
	"math"

	"blockfanout/internal/mmio"
	"blockfanout/internal/sparse"
)

// rng is a splitmix64 stream. Every input of a run is drawn from a stream
// keyed by (seed, purpose, index), so one seed always yields the same
// inputs, on any machine and in any order of generation.
type rng struct{ s uint64 }

func newRNG(seed, purpose, index uint64) *rng {
	r := &rng{s: seed}
	r.s = r.next() ^ purpose*0xD1B54A32D192ED03
	r.s = r.next() ^ index*0x8CB92BA72F3D8DD7
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit returns a uniform value in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// Stream purposes.
const (
	streamValues uint64 = iota + 1
	streamRHS
	streamCheck
)

// spdValues returns new values for m's pattern (lower triangle, CSC) that
// keep the matrix symmetric positive definite: every off-diagonal entry is
// scaled by a factor in [0.5, 1.5) and every diagonal entry is set to its
// row's off-diagonal absolute sum plus a value in [0.5, 1.5), so the matrix
// is strictly diagonally dominant with a positive diagonal.
func spdValues(m *sparse.Matrix, r *rng) []float64 {
	vals := make([]float64, len(m.Val))
	rowSum := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if i := m.RowInd[p]; i != j {
				vals[p] = m.Val[p] * (0.5 + r.unit())
				rowSum[i] += math.Abs(vals[p])
				rowSum[j] += math.Abs(vals[p])
			}
		}
	}
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowInd[p] == j {
				vals[p] = rowSum[j] + 0.5 + r.unit()
			}
		}
	}
	return vals
}

// rhs returns a right-hand side with entries uniform in [-1, 1).
func rhs(n int, r *rng) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*r.unit() - 1
	}
	return b
}

// withValues returns a matrix sharing m's pattern and carrying vals.
func withValues(m *sparse.Matrix, vals []float64) *sparse.Matrix {
	return &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: vals}
}

// jsonCSC is the service's JSON-CSC request body.
type jsonCSC struct {
	N      int       `json:"n"`
	ColPtr []int     `json:"colptr"`
	RowInd []int     `json:"rowind"`
	Val    []float64 `json:"val"`
}

func jsonBody(m *sparse.Matrix) ([]byte, error) {
	return json.Marshal(jsonCSC{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val})
}

func mmBody(m *sparse.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := mmio.Write(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// solveRequest is the service's single right-hand-side solve body.
type solveRequest struct {
	ID string    `json:"id"`
	B  []float64 `json:"b"`
}

func solveBody(id string, b []float64) ([]byte, error) {
	return json.Marshal(solveRequest{ID: id, B: b})
}
