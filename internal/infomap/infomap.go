// Package infomap implements the sequential Infomap algorithm
// (Algorithm 1 of the paper; Rosvall et al. 2009): greedy minimization
// of the two-level map equation by single-vertex moves, followed by
// hierarchical aggregation of the resulting modules into a smaller
// graph, repeated until the codelength stops improving.
//
// This is both the quality reference for the distributed algorithm
// (Figures 4-5, Table 2 compare against it) and the building block the
// parallel variants reuse for their local optimization.
package infomap

import (
	"math"

	"dinfomap/internal/gen"
	"dinfomap/internal/graph"
	"dinfomap/internal/mapeq"
)

// Config controls a sequential Infomap run.
type Config struct {
	// Theta is the outer-loop improvement threshold: the algorithm stops
	// when an outer iteration improves the codelength by less than Theta
	// bits. <= 0 means the default 1e-10.
	Theta float64
	// MaxIterations bounds the number of outer iterations
	// (optimize + merge rounds). <= 0 means the default 25.
	MaxIterations int
	// MaxInnerSweeps bounds the number of full vertex sweeps inside one
	// outer iteration. <= 0 means the default 100.
	MaxInnerSweeps int
	// Seed randomizes the vertex visit order (Algorithm 1, line 13).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = 1e-10
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 25
	}
	if c.MaxInnerSweeps <= 0 {
		c.MaxInnerSweeps = 100
	}
	return c
}

// Result reports a finished run.
type Result struct {
	// Communities assigns each original vertex its final module
	// (dense ids in [0, NumModules)).
	Communities []int
	// NumModules is the number of final modules.
	NumModules int
	// Codelength is the final two-level MDL L(M) in bits.
	Codelength float64
	// InitialCodelength is L of the all-singleton partition.
	InitialCodelength float64
	// MDLTrace[k] is the codelength after outer iteration k (Figure 4).
	MDLTrace []float64
	// MergeRate[k] is the number of vertices eliminated by merging in
	// outer iteration k divided by the original vertex count (Figure 5).
	MergeRate []float64
	// OuterIterations is the number of optimize+merge rounds executed.
	OuterIterations int
	// Moves counts accepted vertex moves across all iterations.
	Moves int
	// DeltaEvaluations counts delta-L computations (the workload unit
	// of the cost model).
	DeltaEvaluations int64
}

// Run executes sequential Infomap on g.
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

	level := g
	rng := gen.NewRNG(cfg.Seed + 0x1b873593)
	// The vertex term sum plogp(p_alpha) of Eq. 3 is defined over the
	// ORIGINAL vertices and stays constant across contraction levels;
	// level-local flows only supply module statistics.
	vertexTerm := mapeq.NewVertexFlow(g).SumPlogpP
	prevL := math.Inf(1)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		opt := optimizeLevel(level, rng, cfg.MaxInnerSweeps, vertexTerm)
		res.Moves += opt.moves
		res.DeltaEvaluations += opt.deltaEvals
		if iter == 0 {
			res.InitialCodelength = opt.initialL
		}
		res.MDLTrace = append(res.MDLTrace, opt.finalL)
		dense, k := graph.Renumber(opt.assignment)
		merged := level.NumVertices() - k
		res.MergeRate = append(res.MergeRate, float64(merged)/float64(n0))
		res.OuterIterations++

		// Project the level assignment down to original vertices.
		for u := range res.Communities {
			res.Communities[u] = dense[res.Communities[u]]
		}
		res.Codelength = opt.finalL
		res.NumModules = k

		if merged == 0 || prevL-opt.finalL < cfg.Theta && iter > 0 {
			break
		}
		prevL = opt.finalL
		contracted, remap := graph.Contract(level, dense)
		// Renumber returns first-appearance order; Contract's remap maps
		// community id -> new vertex. Compose so Communities points at
		// contracted-level vertices.
		for u := range res.Communities {
			res.Communities[u] = remap[res.Communities[u]]
		}
		level = contracted
		if level.NumVertices() <= 1 {
			break
		}
	}
	// Final dense renumbering of the output.
	dense, k := graph.Renumber(res.Communities)
	res.Communities = dense
	res.NumModules = k
	return res
}

// optResult is the outcome of optimizing one level.
type optResult struct {
	assignment []int // per level-vertex module id (non-dense)
	initialL   float64
	finalL     float64
	moves      int
	deltaEvals int64
}

// optimizeLevel runs the inner move loop (Algorithm 1, lines 7-25) on
// one level graph, starting from singletons.
func optimizeLevel(g *graph.Graph, rng *gen.RNG, maxSweeps int, vertexTerm float64) *optResult {
	n := g.NumVertices()
	flow := mapeq.NewVertexFlow(g)
	comm := make([]int, n)
	mods := make([]mapeq.Module, n)
	inv2W := flow.Norm()
	for u := 0; u < n; u++ {
		comm[u] = u
		mods[u] = mapeq.NewModule(flow.P[u], flow.Exit[u], 1)
	}
	agg := mapeq.AggregateModules(mods, vertexTerm)
	out := &optResult{assignment: comm, initialL: agg.L()}

	order := rng.Perm(n)
	// Scratch for per-vertex neighbor-community weights.
	wTo := make([]float64, n)
	touched := make([]int, 0, 16)

	for sweep := 0; sweep < maxSweeps; sweep++ {
		moves := 0
		rng.Shuffle(order)
		for _, u := range order {
			from := comm[u]
			touched = touched[:0]
			g.Neighbors(u, func(v int, w float64) {
				if v == u {
					return
				}
				c := comm[v]
				//dinfomap:float-ok untouched-slot sentinel: cleared to exact 0, only positive weights added
				if wTo[c] == 0 {
					touched = append(touched, c)
				}
				wTo[c] += w * inv2W
			})
			if len(touched) == 0 {
				continue
			}
			mv := mapeq.Move{PU: flow.P[u], ExitU: flow.Exit[u], WToFrom: wTo[from]}
			pr := mapeq.Prepare(agg, mods[from], mv)
			best := 0.0
			bestC := from
			for _, c := range touched {
				if c == from {
					continue
				}
				out.deltaEvals++
				if d, exact := pr.DeltaBelow(mods[c], wTo[c], best); exact && d < best-1e-15 {
					best = d
					bestC = c
				}
			}
			if bestC != from {
				mv.WToTo = wTo[bestC]
				var nf, nt mapeq.Module
				agg, nf, nt = mapeq.ApplyMove(agg, mods[from], mods[bestC], mv)
				mods[from] = nf
				mods[bestC] = nt
				comm[u] = bestC
				moves++
			}
			for _, c := range touched {
				wTo[c] = 0
			}
		}
		out.moves += moves
		if moves == 0 {
			break
		}
	}
	// Re-derive aggregates from scratch to cancel floating-point drift
	// before reporting the level's codelength (Algorithm 1, line 25).
	out.finalL = recomputeL(g, flow, comm, vertexTerm)
	return out
}

// recomputeL computes L(M) from scratch for the given assignment.
// vertexTerm is the constant sum plogp(p_alpha) of the original graph.
// Its modules are built by += and carry no cached log terms; that is
// safe because AggregateModules reads only the statistics, and the
// modules never reach the delta-L kernel.
func recomputeL(g *graph.Graph, flow *mapeq.VertexFlow, comm []int, vertexTerm float64) float64 {
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
