package machine

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/symbolic"
)

// Simulator throughput benchmarks: events processed per second determine
// how large a machine/problem the discrete-event model can handle.

func benchProgram(b *testing.B, g mapping.Grid) *sched.Program {
	b.Helper()
	m := gen.IrregularMesh(1500, 6, 3, 77)
	p, err := ord.Compute(ord.MinDegree, m, 0)
	if err != nil {
		b.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		b.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, 16))
	if err != nil {
		b.Fatal(err)
	}
	return sched.Build(bs, sched.Assignment{Map: mapping.Cyclic(g, bs.N())})
}

func BenchmarkSimulateFIFO64(b *testing.B) {
	pr := benchProgram(b, mapping.Grid{Pr: 8, Pc: 8})
	cfg := Paragon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustSimulate(pr, cfg)
	}
}

func BenchmarkSimulateCritPath64(b *testing.B) {
	pr := benchProgram(b, mapping.Grid{Pr: 8, Pc: 8})
	cfg := Paragon()
	cfg.Policy = CritPath
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustSimulate(pr, cfg)
	}
}

func BenchmarkPriorities(b *testing.B) {
	pr := benchProgram(b, mapping.Grid{Pr: 8, Pc: 8})
	cfg := Paragon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Priorities(pr, cfg)
	}
}
