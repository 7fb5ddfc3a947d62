// Package mapeq implements the map equation (Rosvall et al. 2009), the
// objective function minimized by Infomap. It provides the flow
// initialization for undirected graphs, the two-level codelength L(M) of
// Equation 3 in the paper, and the exact delta-L of single-vertex moves
// that both the sequential and the distributed algorithm evaluate in
// their inner loops.
//
// All quantities are normalized: visit probabilities p_alpha sum to 1
// over the vertices, and module exit probabilities q_m are cut weights
// divided by twice the total edge weight. Codelengths are in bits
// (logarithms base 2).
package mapeq

import (
	"math"

	"dinfomap/internal/graph"
)

// ApproxEq reports whether a and b are equal within eps, the tolerance
// all non-test MDL/codelength comparisons must use instead of == / !=
// (raw float equality on order-dependent sums makes control flow depend
// on rounding noise; the floateq analyzer enforces this).
//
// The check is exact equality (covering ±0 and same-signed infinities),
// then an absolute tolerance |a-b| <= eps (so values straddling zero —
// including subnormals — compare equal under a sensible eps), then a
// relative tolerance |a-b| <= eps*max(|a|, |b|) for large magnitudes.
// NaN compares unequal to everything, itself included. eps must be
// non-negative; eps = 0 degenerates to exact equality.
func ApproxEq(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	//dinfomap:float-ok this is the epsilon helper itself; the exact path handles ±0 and infinities
	if a == b {
		return true
	}
	// Unequal infinities (or infinite vs finite) must not slip through
	// the relative test below, where eps*Inf == Inf would absorb them.
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// PlogP returns x*log2(x), with the measure-theoretic convention that
// 0*log(0) = 0. Negative inputs (which can appear as tiny numerical
// noise when subtracting flows) are clamped to zero.
func PlogP(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log2(x)
}

// VertexFlow holds the per-vertex stationary flow of an undirected
// graph: the visit probability of each vertex and the exit probability
// it would have as a singleton module.
type VertexFlow struct {
	// P[u] is the visit probability of u: strength(u) / (2W), where a
	// self-loop contributes twice to strength (paper Section 2.2).
	P []float64
	// Exit[u] is the exit probability of the singleton module {u}:
	// (strength(u) - 2*selfLoop(u)) / (2W). Self-loops never exit.
	Exit []float64
	// SumPlogpP is the constant term sum_alpha plogp(p_alpha) of Eq. 3.
	SumPlogpP float64
	// TotalWeight is W, the sum of undirected edge weights.
	TotalWeight float64
}

// NewVertexFlow computes the flow quantities of g. Graphs with zero
// total weight yield all-zero flows.
func NewVertexFlow(g *graph.Graph) *VertexFlow {
	n := g.NumVertices()
	f := &VertexFlow{
		P:           make([]float64, n),
		Exit:        make([]float64, n),
		TotalWeight: g.TotalWeight(),
	}
	if f.TotalWeight <= 0 {
		return f
	}
	inv2W := 1 / (2 * f.TotalWeight)
	for u := 0; u < n; u++ {
		strength := 0.0
		selfW := 0.0
		g.Neighbors(u, func(v int, w float64) {
			if v == u {
				selfW += w
				strength += 2 * w
			} else {
				strength += w
			}
		})
		f.P[u] = strength * inv2W
		f.Exit[u] = (strength - 2*selfW) * inv2W
		f.SumPlogpP += PlogP(f.P[u])
	}
	return f
}

// Norm returns the normalization factor 1/(2W), or 0 for empty graphs.
func (f *VertexFlow) Norm() float64 {
	if f.TotalWeight <= 0 {
		return 0
	}
	return 1 / (2 * f.TotalWeight)
}

// Module is the statistics of one module needed by the map equation:
// exactly the payload of the paper's Module_Info message (List 1) minus
// bookkeeping flags.
//
// A Module also caches its two Eq. 3 log terms, so the delta-L kernel
// reads them instead of recomputing them per candidate. Build modules
// with NewModule (or take them from ApplyMove): a literal with fields
// carries a zero cache and silently yields a wrong delta-L. The zero
// Module is exact, since PlogP(0) = 0. The cache never goes on the wire.
type Module struct {
	SumPr   float64 // sum of visit probabilities of members
	ExitPr  float64 // exit probability q_m (normalized cut weight)
	Members int     // number of member vertices

	plogQ  float64 // PlogP(ExitPr)
	plogQP float64 // PlogP(ExitPr + SumPr)
}

// NewModule returns the module with the given statistics and its log
// terms cached.
func NewModule(sumPr, exitPr float64, members int) Module {
	return Module{
		SumPr:   sumPr,
		ExitPr:  exitPr,
		Members: members,
		plogQ:   PlogP(exitPr),
		plogQP:  PlogP(exitPr + sumPr),
	}
}

// Terms returns the module's contributions to the three module sums of
// Eq. 3: q, plogp(q) and plogp(q+p), the last two read from the cache.
func (m Module) Terms() (q, plogQ, plogQP float64) { return m.ExitPr, m.plogQ, m.plogQP }

// Empty reports whether the module has no members.
func (m Module) Empty() bool { return m.Members == 0 }

// Aggregates carries the three module sums of Eq. 3 so the codelength
// and move deltas are O(1). Both algorithms maintain one of these
// incrementally and re-derive it from scratch at iteration boundaries to
// cancel floating-point drift.
type Aggregates struct {
	QTotal     float64 // sum_m q_m
	SumQLogQ   float64 // sum_m plogp(q_m)
	SumQPLogQP float64 // sum_m plogp(q_m + p_m)
	SumPlogpP  float64 // sum_alpha plogp(p_alpha): constant per level
}

// L returns the two-level map equation codelength in bits (Eq. 3):
//
//	L = plogp(Q) - 2*sum plogp(q_m) - sum plogp(p_a) + sum plogp(q_m+p_m)
func (a Aggregates) L() float64 { return a.lFrom(PlogP(a.QTotal)) }

// lFrom is L given plogQ = PlogP(a.QTotal), for callers that need that
// term too.
func (a Aggregates) lFrom(plogQ float64) float64 {
	return plogQ - 2*a.SumQLogQ - a.SumPlogpP + a.SumQPLogQP
}

// AggregateModules builds Aggregates from a module table. sumPlogpP is
// the constant vertex term (VertexFlow.SumPlogpP for the current level).
// It reads only the statistics, never the cached log terms, so it also
// accepts modules accumulated field by field.
func AggregateModules(mods []Module, sumPlogpP float64) Aggregates {
	a := Aggregates{SumPlogpP: sumPlogpP}
	for _, m := range mods {
		if m.Empty() {
			continue
		}
		a.QTotal += m.ExitPr
		a.SumQLogQ += PlogP(m.ExitPr)
		a.SumQPLogQP += PlogP(m.ExitPr + m.SumPr)
	}
	return a
}

// Move describes a candidate relocation of one vertex u from module
// From to module To, with the flow quantities the delta computation
// needs. WToFrom/WToTo are the normalized link weights (w/(2W)) between
// u and the *other* members of From, respectively the members of To.
type Move struct {
	PU      float64 // visit probability of u
	ExitU   float64 // singleton exit probability of u
	WToFrom float64 // normalized links u <-> (From \ {u})
	WToTo   float64 // normalized links u <-> To
}

// leave returns from after the vertex of mv has left it. Removing u
// turns its internal links into exiting ones and removes its external
// links from the cut (see DESIGN.md for the derivation).
func leave(from Module, mv Move) Module {
	members := from.Members - 1
	if members == 0 {
		// Empty modules carry no flow; clamp numerical residue.
		return Module{}
	}
	return NewModule(clamp(from.SumPr-mv.PU), clamp(from.ExitPr-mv.ExitU+2*mv.WToFrom), members)
}

// enter returns to after a vertex with visit probability pu, singleton
// exit exitU and normalized link weight wToTo into to has joined it.
func enter(to Module, pu, exitU, wToTo float64) Module {
	sumPr, exitPr := entered(to, pu, exitU, wToTo)
	return NewModule(sumPr, exitPr, to.Members+1)
}

// entered returns the flow statistics of enter's module without its log
// terms.
func entered(to Module, pu, exitU, wToTo float64) (sumPr, exitPr float64) {
	return clamp(to.SumPr + pu), clamp(to.ExitPr + exitU - 2*wToTo)
}

// clamp zeroes tiny negative residue of flow subtractions.
func clamp(x float64) float64 {
	if x < 0 && x > -1e-12 {
		return 0
	}
	return x
}

// step returns the aggregates after from and to were replaced by nf and
// nt. Each sum is evaluated left to right as ((new from + new to) - old
// from) - old to, reading the cached log terms: bit for bit the value
// of computing all eight terms afresh in that order (see DESIGN.md).
func step(a Aggregates, from, nf, to, nt Module) Aggregates {
	a.QTotal += nf.ExitPr + nt.ExitPr - from.ExitPr - to.ExitPr
	if a.QTotal < 0 {
		a.QTotal = 0
	}
	a.SumQLogQ += nf.plogQ + nt.plogQ - from.plogQ - to.plogQ
	a.SumQPLogQP += nf.plogQP + nt.plogQP - from.plogQP - to.plogQP
	return a
}

// Prepared is the candidate-invariant part of the delta-L of moving one
// vertex out of its module: the current codelength and the module it
// leaves behind, both computed once per vertex. Delta then evaluates
// each candidate target with three logarithms; DeltaBelow first tries
// to rule the candidate out with none.
type Prepared struct {
	agg       Aggregates
	from, nf  Module // the vertex's module, before and after it leaves
	pu, exitU float64
	l0        float64 // agg.L()

	// leaveL is the leave-side part of delta-L, exact from the cached
	// terms: -2*(plogp(q'_from) - plogp(q_from)) + plogp(q'_from+p'_from)
	// - plogp(q_from+p_from). slopeQ is plogp'(Q) = log2(Q) + 1/ln2,
	// valid when Q > 0.
	leaveL float64
	slopeQ float64
}

// Prepare hoists the parts of the delta-L of moving the vertex of mv
// out of from that do not depend on the target module. mv.WToTo is
// ignored; each candidate passes its own weight to Delta.
func Prepare(a Aggregates, from Module, mv Move) Prepared {
	nf := leave(from, mv)
	plogQ := PlogP(a.QTotal)
	p := Prepared{agg: a, from: from, nf: nf, pu: mv.PU, exitU: mv.ExitU, l0: a.lFrom(plogQ),
		leaveL: -2*(nf.plogQ-from.plogQ) + (nf.plogQP - from.plogQP)}
	if a.QTotal > 0 {
		p.slopeQ = plogQ/a.QTotal + math.Log2E
	}
	return p
}

// Delta returns the codelength change (bits) of moving the prepared
// vertex into to, whose members it links to with normalized weight
// wToTo. Negative is an improvement.
func (p *Prepared) Delta(to Module, wToTo float64) float64 {
	return p.delta(to, enter(to, p.pu, p.exitU, wToTo))
}

// delta returns the codelength change of replacing from and to by the
// prepared nf and nt.
func (p *Prepared) delta(to, nt Module) float64 {
	return step(p.agg, p.from, p.nf, to, nt).L() - p.l0
}

// pruneMargin is how far DeltaBelow's lower bound must exceed its limit
// before it rules a candidate out. It covers the rounding of the bound
// and of Delta itself, whose terms are codelength sums of 10 to 30 bits
// (a few ulps each, about 1e-14 in all), with two orders to spare.
const pruneMargin = 1e-12

// DeltaBelow returns Delta(to, wToTo) and true, unless a lower bound on
// it exceeds limit + pruneMargin: then it returns false without
// computing a logarithm. A caller that keeps a running best and takes a
// candidate only when its delta is below best - 1e-15 can pass best as
// limit: a ruled-out candidate is one it would have rejected anyway.
func (p *Prepared) DeltaBelow(to Module, wToTo, limit float64) (float64, bool) {
	sumPr, exitPr := entered(to, p.pu, p.exitU, wToTo)
	if lb, ok := p.lowerBound(to, sumPr, exitPr); ok && lb > limit+pruneMargin {
		return 0, false
	}
	return p.delta(to, NewModule(sumPr, exitPr, to.Members+1)), true
}

// SingletonTerm returns the module terms -2*plogp(q) + plogp(q+p) of
// the module a vertex with visit probability pu and singleton exit
// exitU forms alone: the target of its escape into an empty module. A
// caller computes it once per vertex for EscapeBelow.
func SingletonTerm(pu, exitU float64) float64 {
	s := enter(Module{}, pu, exitU, 0)
	return -2*s.plogQ + s.plogQP
}

// EscapeBelow is DeltaBelow for the move into an empty module, which
// the vertex then forms alone; term must be SingletonTerm(pu, exitU) of
// the prepared vertex. With the new module's terms given, the bound
// needs only the tangent of plogp(Q'), which is tight. The delta it
// returns is Delta(Module{}, 0).
func (p *Prepared) EscapeBelow(term, limit float64) (float64, bool) {
	_, exitPr := entered(Module{}, p.pu, p.exitU, 0)
	nQ := p.agg.QTotal + (p.nf.ExitPr + exitPr - p.from.ExitPr)
	if p.agg.QTotal > 0 && nQ > 0 && p.leaveL+p.slopeQ*(nQ-p.agg.QTotal)+term > limit+pruneMargin {
		return 0, false
	}
	return p.Delta(Module{}, 0), true
}

// lowerBound returns a lower bound on the delta-L of moving the prepared
// vertex into to, which becomes a module with statistics sumPr and
// exitPr, using no logarithm (DESIGN.md §3.1). plogp is convex, its
// second derivative 1/(x ln2), so a change of plogp is bounded by its
// tangent at the old value plus a curvature term: from below for
// plogp(Q') (tangent alone) and plogp(q'+p') (plus the least curvature
// between the old and new value), from above for plogp(q'), which
// enters with -2 (plus the largest curvature). ok is false for
// degenerate modules, where Q, Q', q, q', q+p or q'+p' is not positive
// and a clamp or the 0*log(0) convention applies.
func (p *Prepared) lowerBound(to Module, sumPr, exitPr float64) (lb float64, ok bool) {
	q, y, ny := to.ExitPr, to.ExitPr+to.SumPr, exitPr+sumPr
	nQ := p.agg.QTotal + (p.nf.ExitPr + exitPr - p.from.ExitPr - q)
	if !(p.agg.QTotal > 0 && nQ > 0 && q > 0 && exitPr > 0 && y > 0 && ny > 0) {
		return 0, false
	}
	dq := exitPr - q
	slopeTo := to.plogQ/q + math.Log2E
	slopeToP := to.plogQP/y + math.Log2E
	dy := ny - y
	return p.leaveL + p.slopeQ*(nQ-p.agg.QTotal) - 2*slopeTo*dq -
		dq*dq*math.Log2E/min(q, exitPr) + slopeToP*dy + dy*dy*(0.5*math.Log2E)/max(y, ny), true
}

// ApplyMove applies mv to a vertex currently in from, moving it to to,
// and returns the updated aggregates and modules.
func ApplyMove(a Aggregates, from, to Module, mv Move) (Aggregates, Module, Module) {
	nf := leave(from, mv)
	nt := enter(to, mv.PU, mv.ExitU, mv.WToTo)
	return step(a, from, nf, to, nt), nf, nt
}
