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
	// Active set of the passes after a sweep's first: front lists the
	// eval indices the current pass evaluates, next collects the ones
	// the following pass will, and queued marks membership in next.
	front  []int
	next   []int
	queued []bool
	// observe, when non-nil, sees every vertex evaluation of a pass.
	observe func(pass, i int, r evalOutcome)
}

func (lv *level) newScratch() *sweepScratch {
	n := len(lv.evalVerts)
	s := &sweepScratch{
		wTo:    make([]float64, lv.idSpace),
		remote: make([]bool, lv.idSpace),
		order:  make([]int, n),
		front:  make([]int, 0, n),
		next:   make([]int, 0, n),
		queued: make([]bool, n),
	}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// maxLocalPasses bounds local move passes inside one synchronized
// FindBestModule phase.
const maxLocalPasses = 24

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

// sweep runs one FindBestModule phase (Algorithm 2, line 3): "local
// clustering with duplicates". Low-degree vertices are moved repeatedly
// — with immediate local updates, like the sequential inner loop —
// until a pass moves nothing, so every expensive synchronization round
// does a full local optimization. Pass 0 evaluates every vertex in a
// fresh random order; each later pass evaluates only the active set the
// previous pass queued (neighbours of movers and held-back vertices),
// so a quiet pass costs O(active), not O(n). Delegate moves are only
// proposed (one evaluation pass after local quiescence), to be decided
// globally in the BroadcastDelegates phase.
//
// The minimum-label heuristic (Section 3.4) suppresses the vertex
// bouncing problem: when an owned singleton wants to join the singleton
// module of a vertex on another rank, both sides may decide the
// symmetric move in the same round and exchange places forever. The
// move is therefore applied only when the target label is smaller than
// the current one, making exactly one side win.
func (lv *level) sweep(s *sweepScratch, budget int) (moves, deferred int, hubCands []hubCandidate) {
	if budget > maxLocalPasses {
		budget = maxLocalPasses
	}
	for pass := 0; pass < budget; pass++ {
		passMoves := 0
		lv.deferred = 0
		// Pass 0 visits every eval vertex, absorbing what changed since
		// the last sweep (ghost swaps, delegate moves, refreshed stats);
		// later passes visit only the active set the previous one queued.
		visit := s.front
		if pass == 0 {
			visit = s.order
		}
		lv.rng.Shuffle(visit)
		for _, i := range visit {
			if lv.isHub != nil && lv.isHub[lv.evalVerts[i]] {
				continue // delegates are handled after local quiescence
			}
			if lv.evalVertex(s, pass, i) {
				passMoves++
			}
		}
		moves += passMoves
		deferred = lv.deferred
		s.front, s.next = s.next, s.front[:0]
		for _, i := range s.front {
			s.queued[i] = false
		}
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

// evalOutcome is the result of one vertex evaluation in a sweep pass.
type evalOutcome uint8

const (
	evalStay evalOutcome = iota // no improving move
	evalMove                    // the best move was applied
	evalHold                    // deferred by damping or blocked by the minimum-label rule
)

// evalVertex evaluates owned low-degree eval vertex index i and queues
// what the next pass must re-evaluate: every local non-hub eval
// neighbour of a mover, whose best target may have changed, and the
// vertex itself when its move was held back. Returns whether it moved.
func (lv *level) evalVertex(s *sweepScratch, pass, i int) bool {
	u := lv.evalVerts[i]
	if ownerOf(u, lv.p) != lv.rank {
		panicf("rank %d evaluating non-owned non-hub vertex %d", lv.rank, u)
	}
	r := lv.moveVertex(s, i, u)
	switch r {
	case evalMove:
		for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
			v := lv.adjV[j]
			if k := lv.evalIndexOf[v]; k >= 0 && !(lv.isHub != nil && lv.isHub[v]) {
				s.activate(int(k))
			}
		}
	case evalHold:
		s.activate(i)
	}
	if s.observe != nil {
		s.observe(pass, i, r)
	}
	return r == evalMove
}

// activate queues eval index i for the next pass, once.
func (s *sweepScratch) activate(i int) {
	if !s.queued[i] {
		s.queued[i] = true
		s.next = append(s.next, i)
	}
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
// low-degree vertex u (eval index i).
//
// Besides neighbor modules, an owned vertex may escape back to its own
// founder module when that module is currently empty (this rank is the
// module's home, so the emptiness check is authoritative). Sequential
// Infomap never needs this split move, but in the distributed setting
// simultaneous cross-rank joins evaluated against one-round-stale
// statistics can over-merge, and without an escape move the
// over-merging is irreversible once the graph contracts.
func (lv *level) moveVertex(s *sweepScratch, i, u int) evalOutcome {
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
		return evalStay
	}
	// Minimum-label rule against symmetric singleton swaps across rank
	// boundaries: the bounce arises when u and a remote vertex v, both
	// in singleton modules, simultaneously adopt each other's module.
	// Escapes retreat into an empty module and cannot bounce.
	if !escape && !lv.cfg.NoMinLabel && s.remote[bestC] && bestC >= from &&
		lv.mods[bestC].Members == 1 && lv.mods[from].Members == 1 {
		lv.clearWTo(s)
		return evalHold
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
		return evalHold
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
	return evalMove
}
