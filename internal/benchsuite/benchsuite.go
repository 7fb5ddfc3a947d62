// Package benchsuite enumerates the core primitive benchmarks in one
// place so they can run both under `go test -bench` (via thin wrappers)
// and under cmd/dinfomap-bench, which executes them with
// testing.Benchmark and gates the results against the committed
// results/bench-baseline.json.
package benchsuite

import (
	"testing"

	"dinfomap"
	"dinfomap/internal/core"
	"dinfomap/internal/mpi"
)

// Bench is one named benchmark runnable through testing.Benchmark.
// VolatileAllocs marks benchmarks whose allocation counts are
// timing-dependent (asynchronous runs drain a scheduling-dependent
// number of packets per epoch), so the near-strict allocs gate cannot
// apply: cmd/dinfomap-bench records their allocs/bytes under
// wall-prefixed keys the regression differ ignores by convention.
type Bench struct {
	Name           string
	F              func(b *testing.B)
	VolatileAllocs bool
}

// Suite returns the primitive benchmarks in a fixed order: the three
// end-to-end primitives (also wrapped as root Benchmark functions) plus
// the sweep, codec, and collective micro-benches guarding the
// dense-index hot paths and the pooled message buffers.
func Suite() []Bench {
	return []Bench{
		{Name: "SequentialInfomap", F: BenchSequentialInfomap},
		{Name: "DistributedInfomapP4", F: BenchDistributedInfomapP4},
		{Name: "DelegatePartitioning", F: BenchDelegatePartitioning},
		{Name: "SweepPass", F: BenchSweepPass},
		// Both async benches have scheduling- and iteration-dependent
		// allocation profiles: the end-to-end run drains a variable
		// number of packets per epoch, and the epoch primitive's
		// amortized history appends spread differently across b.N.
		{Name: "AsyncEpoch", F: BenchAsyncEpoch, VolatileAllocs: true},
		{Name: "DistributedAsyncP4K2", F: BenchDistributedAsyncP4K2, VolatileAllocs: true},
		{Name: "CodecModuleInfo", F: BenchCodecModuleInfo},
		{Name: "AlltoallvP4", F: BenchAlltoallvP4},
	}
}

// benchSeeds is the fixed seed set the end-to-end benches cycle through,
// so the work measured per op does not depend on b.N.
var benchSeeds = [...]uint64{1, 2, 3, 4}

func benchSeed(i int) uint64 { return benchSeeds[i%len(benchSeeds)] }

func plantedBenchGraph() dinfomap.PlantedGraph {
	return dinfomap.GeneratePlanted(dinfomap.PlantedConfig{
		N: 2000, NumComms: 40, AvgDegree: 10, Mixing: 0.2, DegreeGamma: 2.5,
	}, 11)
}

// BenchSequentialInfomap times one sequential Infomap run.
func BenchSequentialInfomap(b *testing.B) {
	pg := plantedBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dinfomap.RunSequential(pg.Graph, dinfomap.SequentialConfig{Seed: benchSeed(i)})
	}
}

// BenchDistributedInfomapP4 times one distributed run at p = 4: the
// headline end-to-end primitive the acceptance thresholds apply to.
func BenchDistributedInfomapP4(b *testing.B) {
	pg := plantedBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dinfomap.RunDistributed(pg.Graph, dinfomap.DistributedConfig{P: 4, Seed: benchSeed(i)})
	}
}

// BenchDelegatePartitioning times the delegate layout of a 20k-vertex
// power-law graph at p = 16.
func BenchDelegatePartitioning(b *testing.B) {
	g := dinfomap.GeneratePowerLaw(13, 20000, 2.0, 2, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dinfomap.AnalyzeDelegate(g, 16)
	}
}

// BenchSweepPass times one steady-state FindBestModule pass: the level
// is converged first so every timed pass runs the full scan +
// delta-L-evaluation path without applying moves.
func BenchSweepPass(b *testing.B) {
	pg := plantedBenchGraph()
	h := core.NewBenchLevel(pg.Graph, 7)
	for h.SweepPass() > 0 {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SweepPass()
	}
}

// BenchAsyncEpoch times one bounded-staleness epoch exchange round
// (partial encode + epoch bookkeeping + accumulate/materialize) on a
// converged single-rank level: the hot path clusterAsync adds over the
// synchronized loop, isolated from sweep compute.
func BenchAsyncEpoch(b *testing.B) {
	pg := plantedBenchGraph()
	h := core.NewBenchLevel(pg.Graph, 7)
	for h.SweepPass() > 0 {
	}
	h.AsyncEpoch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AsyncEpoch()
	}
}

// BenchDistributedAsyncP4K2 is the end-to-end asynchronous
// counterpart of BenchDistributedInfomapP4: the same planted graph
// clustered with a staleness bound of 2.
func BenchDistributedAsyncP4K2(b *testing.B) {
	pg := plantedBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dinfomap.RunDistributed(pg.Graph, dinfomap.DistributedConfig{P: 4, Seed: benchSeed(i), StalenessBound: 2})
	}
}

// BenchCodecModuleInfo times one Module_Info wire round: 1024 records
// (one third short-form) encoded into a warm encoder and decoded back.
func BenchCodecModuleInfo(b *testing.B) {
	recs := make([]core.ModuleInfo, 1024)
	for i := range recs {
		recs[i] = core.ModuleInfo{
			ModID:      i * 7,
			SumPr:      float64(i) * 1e-4,
			ExitPr:     float64(i) * 1e-5,
			NumMembers: i%97 + 1,
			IsSent:     i%3 == 0,
		}
	}
	e := mpi.NewEncoder(1 << 16)
	d := mpi.NewDecoder(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := core.BenchCodecRound(e, d, recs); got != len(recs) {
			b.Fatalf("decoded %d records, want %d", got, len(recs))
		}
	}
}

// BenchAlltoallvP4 times a 4-rank Alltoallv exchange with 1 KiB per
// destination, the collective under every sweep's boundary swap and
// both Module_Info rounds.
func BenchAlltoallvP4(b *testing.B) {
	const p, chunk = 4, 1024
	b.ResetTimer()
	mpi.Run(p, func(c *mpi.Comm) {
		bufs := make([][]byte, p)
		for dst := range bufs {
			buf := make([]byte, chunk)
			for i := range buf {
				buf[i] = byte(c.Rank()*31 + dst*7 + i)
			}
			bufs[dst] = buf
		}
		for i := 0; i < b.N; i++ {
			c.Alltoallv(bufs)
		}
	})
}
