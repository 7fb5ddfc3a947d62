package mapeq

import (
	"testing"

	"dinfomap/internal/graph"
)

func benchSetup() (Aggregates, Module, Module, Move) {
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	f := NewVertexFlow(g)
	mods := []Module{
		NewModule(0.5, 1.0/14, 3),
		NewModule(0.5, 1.0/14, 3),
	}
	agg := AggregateModules(mods, f.SumPlogpP)
	mv := Move{PU: f.P[2], ExitU: f.Exit[2], WToFrom: 2.0 / 14, WToTo: 1.0 / 14}
	return agg, mods[0], mods[1], mv
}

// benchSink keeps the benchmarked results live.
var benchSink float64

// benchCandidates is the number of candidate modules per prepared
// vertex in BenchmarkDeltaL, a typical neighbour-module count.
const benchCandidates = 8

// BenchmarkDeltaL measures the inner-loop move evaluation as the sweep
// runs it: one Prepare per vertex, then one Delta per candidate module.
// ns/candidate is the unit of the cost model's TimePerOp constant.
func BenchmarkDeltaL(b *testing.B) {
	agg, from, to, mv := benchSetup()
	tos := make([]Module, benchCandidates)
	for k := range tos {
		tos[k] = NewModule(to.SumPr*float64(k+1)/benchCandidates, to.ExitPr, to.Members+k)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr := Prepare(agg, from, mv)
		for k := range tos {
			benchSink += pr.Delta(tos[k], mv.WToTo)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchCandidates), "ns/candidate")
}

// BenchmarkDeltaBelow measures the pruned evaluation as the sweep runs
// it: one Prepare per vertex, then DeltaBelow per candidate against the
// running best. The candidates are BenchmarkDeltaL's, every second one
// linked with a tenth of the weight; pruned/candidate reports the share
// the bound rules out (most, as in a sweep).
func BenchmarkDeltaBelow(b *testing.B) {
	agg, from, to, mv := benchSetup()
	tos := make([]Module, benchCandidates)
	ws := make([]float64, benchCandidates)
	for k := range tos {
		tos[k] = NewModule(to.SumPr*float64(k+1)/benchCandidates, to.ExitPr, to.Members+k)
		ws[k] = mv.WToTo
		if k%2 == 1 {
			ws[k] /= 10
		}
	}
	pruned := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr := Prepare(agg, from, mv)
		best := 0.0
		for k := range tos {
			d, ok := pr.DeltaBelow(tos[k], ws[k], best)
			if !ok {
				pruned++
			} else if d < best-1e-15 {
				best = d
			}
		}
		benchSink += best
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchCandidates), "ns/candidate")
	b.ReportMetric(float64(pruned)/float64(b.N*benchCandidates), "pruned/candidate")
}

func BenchmarkApplyMove(b *testing.B) {
	agg, from, to, mv := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = ApplyMove(agg, from, to, mv)
	}
}

func BenchmarkNewVertexFlow(b *testing.B) {
	bld := graph.NewBuilder(10000)
	for u := 0; u < 10000; u++ {
		bld.AddEdge(u, (u+1)%10000)
		bld.AddEdge(u, (u+7)%10000)
	}
	g := bld.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewVertexFlow(g)
	}
}
