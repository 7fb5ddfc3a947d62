// Package relax implements a RelaxMap-style shared-memory parallel
// Infomap (Bae et al. 2013): worker threads sweep disjoint vertex
// shards concurrently, evaluating delta-L against module statistics
// read optimistically (possibly slightly stale) and applying moves
// under striped per-module locks. This "relaxed consistency" is the
// paper's shared-memory comparator; the distributed algorithm in
// internal/core is compared against it conceptually in Table 3.
package relax

import (
	"math"
	"sync"
	"sync/atomic"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
)

// Config controls a RelaxMap-style run.
type Config struct {
	// Workers is the number of concurrent sweep workers; <= 0 means 4.
	Workers int
	// Theta is the outer-loop improvement threshold; <= 0 means 1e-10.
	Theta float64
	// MaxIterations bounds outer rounds; <= 0 means 25.
	MaxIterations int
	// MaxSweeps bounds parallel sweeps per level; <= 0 means 100.
	MaxSweeps int
	// Seed randomizes shard visit orders.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Theta <= 0 {
		c.Theta = 1e-10
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 25
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 100
	}
	return c
}

// Result reports a finished run.
type Result struct {
	Communities     []int
	NumModules      int
	Codelength      float64
	OuterIterations int
	Moves           int
}

const lockStripes = 64

// Run executes the parallel algorithm on g.
func Run(g *graph.Graph, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n0 := g.NumVertices()
	res := &Result{Communities: make([]int, n0)}
	for u := range res.Communities {
		res.Communities[u] = u
	}
	//dinfomap:float-ok exact emptiness guard: weight is a sum of strictly positive addends
	if n0 == 0 || g.TotalWeight() == 0 {
		res.NumModules = n0
		return res
	}
	vertexTerm := mapeq.NewVertexFlow(g).SumPlogpP
	level := g
	prevL := math.Inf(1)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		comm, l, moves := optimizeParallel(level, cfg, uint64(iter), vertexTerm)
		res.Moves += moves
		dense, k := graph.Renumber(comm)
		res.OuterIterations++
		for u := range res.Communities {
			res.Communities[u] = dense[res.Communities[u]]
		}
		res.Codelength = l
		res.NumModules = k
		if k == level.NumVertices() || prevL-l < cfg.Theta && iter > 0 {
			break
		}
		prevL = l
		contracted, remap := graph.Contract(level, dense)
		for u := range res.Communities {
			res.Communities[u] = remap[res.Communities[u]]
		}
		level = contracted
		if level.NumVertices() <= 1 {
			break
		}
	}
	dense, k := graph.Renumber(res.Communities)
	res.Communities = dense
	res.NumModules = k
	return res
}

// sharedState is the concurrently mutated level state. Assignments are
// read with atomics (stale reads are the "relaxed" part of RelaxMap);
// module statistics are read and written under striped locks.
type sharedState struct {
	mu    [lockStripes]sync.Mutex
	comm  []atomic.Int64
	mods  []mapeq.Module // guarded by mu[id%lockStripes]
	agg   mapeq.Aggregates
	aggMu sync.Mutex
}

func (s *sharedState) readMod(m int) mapeq.Module {
	s.mu[m%lockStripes].Lock()
	v := s.mods[m]
	s.mu[m%lockStripes].Unlock()
	return v
}

func (s *sharedState) lockPair(a, b int) (unlock func()) {
	i, j := a%lockStripes, b%lockStripes
	if i > j {
		i, j = j, i
	}
	s.mu[i].Lock()
	if j != i {
		s.mu[j].Lock()
	}
	return func() {
		if j != i {
			s.mu[j].Unlock()
		}
		s.mu[i].Unlock()
	}
}

// optimizeParallel runs concurrent sweeps over one level.
func optimizeParallel(g *graph.Graph, cfg Config, salt uint64, vertexTerm float64) (comm []int, l float64, moves int) {
	n := g.NumVertices()
	flow := mapeq.NewVertexFlow(g)
	st := &sharedState{
		comm: make([]atomic.Int64, n),
		mods: make([]mapeq.Module, n),
	}
	inv2W := flow.Norm()
	for u := 0; u < n; u++ {
		st.comm[u].Store(int64(u))
		st.mods[u] = mapeq.NewModule(flow.P[u], flow.Exit[u], 1)
	}
	st.agg = mapeq.AggregateModules(st.mods, vertexTerm)

	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		var wg sync.WaitGroup
		sweptBy := make([]int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := gen.NewRNG(cfg.Seed ^ salt<<20 ^ uint64(sweep)<<8 ^ uint64(w))
				sweptBy[w] = sweepShard(g, flow, st, inv2W, w, workers, rng)
			}(w)
		}
		wg.Wait()
		total := 0
		for _, s := range sweptBy {
			total += s
		}
		moves += total
		if total == 0 {
			break
		}
	}
	// Exact codelength of the final assignment (stale optimistic
	// aggregates are discarded).
	comm = make([]int, n)
	for u := range comm {
		comm[u] = int(st.comm[u].Load())
	}
	l = exactL(g, flow, comm, vertexTerm)
	return comm, l, moves
}

// sweepShard processes the vertices of one shard: optimistic delta-L
// evaluation, locked move application with re-validation of the source
// community (RelaxMap's relaxation: target stats may be stale).
func sweepShard(g *graph.Graph, flow *mapeq.VertexFlow, st *sharedState,
	inv2W float64, shard, workers int, rng *gen.RNG) int {

	var mine []int
	for u := shard; u < g.NumVertices(); u += workers {
		mine = append(mine, u)
	}
	rng.Shuffle(mine)
	moves := 0
	wTo := make(map[int]float64, 16)
	for _, u := range mine {
		for k := range wTo {
			delete(wTo, k)
		}
		from := int(st.comm[u].Load())
		g.Neighbors(u, func(v int, w float64) {
			if v != u {
				wTo[int(st.comm[v].Load())] += w * inv2W
			}
		})
		if len(wTo) == 0 {
			continue
		}
		mv := mapeq.Move{PU: flow.P[u], ExitU: flow.Exit[u], WToFrom: wTo[from]}
		st.aggMu.Lock()
		agg := st.agg
		st.aggMu.Unlock()
		pr := mapeq.Prepare(agg, st.readMod(from), mv)
		best := 0.0
		bestC := from
		for c, w := range wTo {
			if c == from {
				continue
			}
			if d, exact := pr.DeltaBelow(st.readMod(c), w, best); exact && d < best-1e-15 {
				best = d
				bestC = c
			}
		}
		if bestC == from {
			continue
		}
		unlock := st.lockPair(from, bestC)
		// Re-validate: u must still be in from, and from must still
		// hold u's probability mass.
		if int(st.comm[u].Load()) != from || st.mods[from].Members == 0 {
			unlock()
			continue
		}
		mv.WToTo = wTo[bestC]
		var nf, nt mapeq.Module
		st.aggMu.Lock()
		st.agg, nf, nt = mapeq.ApplyMove(st.agg, st.mods[from], st.mods[bestC], mv)
		st.aggMu.Unlock()
		st.mods[from] = nf
		st.mods[bestC] = nt
		st.comm[u].Store(int64(bestC))
		unlock()
		moves++
	}
	return moves
}

// exactL evaluates the two-level codelength of comm on g from scratch.
// Its modules are built by += and carry no cached log terms; that is
// safe because AggregateModules reads only the statistics, and the
// modules never reach the delta-L kernel.
func exactL(g *graph.Graph, flow *mapeq.VertexFlow, comm []int, vertexTerm float64) float64 {
	dense, k := graph.Renumber(comm)
	mods := make([]mapeq.Module, k)
	inv2W := flow.Norm()
	for u := 0; u < g.NumVertices(); u++ {
		c := dense[u]
		mods[c].SumPr += flow.P[u]
		mods[c].Members++
		g.Neighbors(u, func(v int, w float64) {
			if v != u && dense[v] != c {
				mods[c].ExitPr += w * inv2W
			}
		})
	}
	return mapeq.AggregateModules(mods, vertexTerm).L()
}
