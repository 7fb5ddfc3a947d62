package core

import (
	"dinfomap/internal/mapeq"
)

// sweepScratch holds reusable per-sweep buffers.
type sweepScratch struct {
	wTo     []float64 // indexed by community id
	remote  []bool    // community reached through a non-owned vertex
	touched []int
	order   []int // permutation over evalVerts indices
	cands   []hubCandidate
	// prep is the delta-L kernel prepared by the latest bestTarget for
	// moving its vertex out of its current module.
	prep mapeq.Prepared
}

func (lv *level) newScratch() *sweepScratch {
	s := &sweepScratch{
		wTo:    make([]float64, lv.idSpace),
		remote: make([]bool, lv.idSpace),
		order:  make([]int, len(lv.evalVerts)),
	}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// maxLocalPasses bounds local move passes inside one synchronized
// FindBestModule phase.
const maxLocalPasses = 24

// sweep runs one FindBestModule phase (Algorithm 2, line 3): "local
// clustering with duplicates". Low-degree vertices are moved repeatedly
// — with immediate local updates, like the sequential inner loop —
// until no local move improves the codelength, so every expensive
// synchronization round does a full local optimization. Delegate moves
// are only proposed (one evaluation pass after local quiescence), to be
// decided globally in the BroadcastDelegates phase.
//
// The minimum-label heuristic (Section 3.4) suppresses the vertex
// bouncing problem: when an owned singleton wants to join the singleton
// module of a vertex on another rank, both sides may decide the
// symmetric move in the same round and exchange places forever. The
// move is therefore applied only when the target label is smaller than
// the current one, making exactly one side win.
// passBudget limits local passes for a given synchronized iteration:
// early rounds run a single pass so boundary information propagates
// before rank-local greediness can lock in cross-boundary mistakes;
// later rounds run to local convergence to keep the number of expensive
// synchronization rounds small.
func passBudget(iter int) int {
	if iter >= 4 {
		return maxLocalPasses
	}
	return 1 << iter // 1, 2, 4, 8
}

// dampProb returns the remote-move deferral probability for a
// synchronized round: strong early (when every rank sees the identical
// all-singleton opportunity set), gone by round 4.
func dampProb(iter int) float64 {
	switch {
	case iter < 2:
		return 0.5
	case iter < 4:
		return 0.25
	default:
		return 0
	}
}

func (lv *level) sweep(s *sweepScratch, budget int) (moves, deferred int, hubCands []hubCandidate) {
	if budget > maxLocalPasses {
		budget = maxLocalPasses
	}
	for pass := 0; pass < budget; pass++ {
		passMoves := 0
		lv.deferred = 0
		lv.rng.Shuffle(s.order)
		for _, i := range s.order {
			u := lv.evalVerts[i]
			if lv.isHub != nil && lv.isHub[u] {
				continue // delegates are handled after local quiescence
			}
			if ownerOf(u, lv.p) != lv.rank {
				panicf("rank %d evaluating non-owned non-hub vertex %d", lv.rank, u)
			}
			if lv.moveVertex(s, i, u) {
				passMoves++
			}
		}
		moves += passMoves
		deferred = lv.deferred
		if passMoves == 0 {
			break
		}
	}
	// Delegate proposal pass: evaluate each local hub portion once.
	s.cands = s.cands[:0]
	for _, h := range lv.hubs {
		i := lv.evalIndexOf[h]
		if i < 0 {
			continue
		}
		if target, delta, ok := lv.bestTarget(s, int(i), h); ok {
			s.cands = append(s.cands, hubCandidate{Hub: h, Target: target, DeltaL: delta})
		}
		lv.clearWTo(s)
	}
	return moves, deferred, s.cands
}

// bestTarget evaluates all neighbor modules of eval vertex index i
// (vertex u) and returns the best move, if any improves. It leaves the
// kernel prepared for u in s.prep.
func (lv *level) bestTarget(s *sweepScratch, i, u int) (target int, delta float64, ok bool) {
	from := lv.comm[u]
	s.touched = s.touched[:0]
	for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
		v := lv.adjV[j]
		if v == u {
			continue
		}
		cv := lv.comm[v]
		//dinfomap:float-ok untouched-slot sentinel: cleared to exact 0 by clearWTo, only positive weights added
		if s.wTo[cv] == 0 {
			s.touched = append(s.touched, cv)
			s.remote[cv] = false
		}
		s.wTo[cv] += lv.adjW[j] * lv.inv2W
		if ownerOf(v, lv.p) != lv.rank || (lv.isHub != nil && lv.isHub[v]) {
			s.remote[cv] = true
		}
	}
	s.prep = mapeq.Prepare(lv.agg, lv.mods[from],
		mapeq.Move{PU: lv.visit[u], ExitU: lv.exitP[u], WToFrom: s.wTo[from]})
	if len(s.touched) == 0 {
		return 0, 0, false
	}
	best := 0.0
	bestC := from
	for _, cv := range s.touched {
		if cv == from {
			continue
		}
		lv.deltaEvals++
		if d := s.prep.Delta(lv.mods[cv], s.wTo[cv]); d < best-1e-15 {
			best = d
			bestC = cv
		}
	}
	// Leave s.wTo dirty; the caller that needs the weights reads them
	// before calling clearWTo.
	return bestC, best, bestC != from
}

func (lv *level) clearWTo(s *sweepScratch) {
	for _, cv := range s.touched {
		s.wTo[cv] = 0
	}
}

// moveVertex evaluates and, if allowed, applies the best move of owned
// low-degree vertex u (eval index i). Returns whether a move happened.
//
// Besides neighbor modules, an owned vertex may escape back to its own
// founder module when that module is currently empty (this rank is the
// module's home, so the emptiness check is authoritative). Sequential
// Infomap never needs this split move, but in the distributed setting
// simultaneous cross-rank joins evaluated against one-round-stale
// statistics can over-merge, and without an escape move the
// over-merging is irreversible once the graph contracts.
func (lv *level) moveVertex(s *sweepScratch, i, u int) bool {
	bestC, bestDelta, ok := lv.bestTarget(s, i, u)
	from := lv.comm[u]
	escape := false
	if from != u && lv.ownedStats[u/lv.p].Members == 0 && lv.mods[u].Members == 0 {
		lv.deltaEvals++
		if d := s.prep.Delta(mapeq.Module{}, 0); d < bestDelta-1e-15 {
			bestC = u
			ok = true
			escape = true
		}
	}
	if !ok {
		lv.clearWTo(s)
		return false
	}
	// Minimum-label rule against symmetric singleton swaps across rank
	// boundaries: the bounce arises when u and a remote vertex v, both
	// in singleton modules, simultaneously adopt each other's module.
	// Escapes retreat into an empty module and cannot bounce.
	if !escape && !lv.cfg.NoMinLabel && s.remote[bestC] && bestC >= from &&
		lv.mods[bestC].Members == 1 && lv.mods[from].Members == 1 {
		lv.clearWTo(s)
		return false
	}
	// Damping of cross-boundary moves: ranks sharing identical module
	// statistics tend to pile into the same attractive module in the
	// same round, over-merging past what any of them would accept with
	// current information. Early rounds defer each remote-target move
	// probabilistically, desynchronizing the herd; the probability
	// decays to zero so convergence on small graphs is unaffected.
	if !escape && !lv.cfg.NoDamping && s.remote[bestC] && lv.dampP > 0 &&
		lv.rng.Float64() < lv.dampP {
		lv.deferred++
		lv.clearWTo(s)
		return false
	}
	mv := mapeq.Move{
		PU:      lv.visit[u],
		ExitU:   lv.exitP[u],
		WToFrom: s.wTo[from],
		WToTo:   s.wTo[bestC],
	}
	lv.clearWTo(s)
	var nf, nt mapeq.Module
	lv.agg, nf, nt = mapeq.ApplyMove(lv.agg, lv.mods[from], lv.mods[bestC], mv)
	lv.mods[from] = nf
	lv.mods[bestC] = nt
	lv.trackMod(from)
	lv.trackMod(bestC)
	lv.comm[u] = bestC
	return true
}
