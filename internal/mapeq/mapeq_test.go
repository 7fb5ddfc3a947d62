package mapeq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dinfomap/internal/graph"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestPlogP(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{-0.5, 0}, // clamped
		{1, 0},
		{0.5, -0.5},
		{2, 2},
	}
	for _, c := range cases {
		if got := PlogP(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("PlogP(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVertexFlowTriangle(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	f := NewVertexFlow(g)
	for u := 0; u < 3; u++ {
		if !almostEqual(f.P[u], 1.0/3, 1e-12) {
			t.Errorf("P[%d] = %v, want 1/3", u, f.P[u])
		}
		if !almostEqual(f.Exit[u], 1.0/3, 1e-12) {
			t.Errorf("Exit[%d] = %v, want 1/3", u, f.Exit[u])
		}
	}
}

func TestVertexFlowSumsToOne(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
	f := NewVertexFlow(g)
	sum := 0.0
	for _, p := range f.P {
		sum += p
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("sum of visit probabilities = %v, want 1", sum)
	}
}

func TestVertexFlowSelfLoopDoesNotExit(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 0)
	g := b.Build()
	f := NewVertexFlow(g)
	// W = 2; strength(0) = 1 + 2 = 3, so p_0 = 3/4, exit_0 = (3-2)/4 = 1/4.
	if !almostEqual(f.P[0], 0.75, 1e-12) {
		t.Errorf("P[0] = %v, want 0.75", f.P[0])
	}
	if !almostEqual(f.Exit[0], 0.25, 1e-12) {
		t.Errorf("Exit[0] = %v, want 0.25", f.Exit[0])
	}
}

func TestVertexFlowEmptyGraph(t *testing.T) {
	f := NewVertexFlow(graph.NewBuilder(3).Build())
	if f.Norm() != 0 {
		t.Errorf("Norm = %v, want 0", f.Norm())
	}
	for u, p := range f.P {
		if p != 0 {
			t.Errorf("P[%d] = %v, want 0", u, p)
		}
	}
}

// buildModules constructs module stats for a given assignment, from
// scratch — the reference against which incremental updates are tested.
func buildModules(g *graph.Graph, f *VertexFlow, comm []int, k int) []Module {
	mods := make([]Module, k)
	inv2W := f.Norm()
	for u := 0; u < g.NumVertices(); u++ {
		c := comm[u]
		mods[c].SumPr += f.P[u]
		mods[c].Members++
		g.Neighbors(u, func(v int, w float64) {
			if v != u && comm[v] != c {
				mods[c].ExitPr += w * inv2W
			}
		})
	}
	for c, m := range mods {
		mods[c] = NewModule(m.SumPr, m.ExitPr, m.Members)
	}
	return mods
}

func TestCodelengthSingletonsVsMerged(t *testing.T) {
	// Two triangles plus one bridge: merging each triangle must compress.
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{2, 3},
	})
	f := NewVertexFlow(g)

	singles := make([]int, 6)
	for i := range singles {
		singles[i] = i
	}
	aSingle := AggregateModules(buildModules(g, f, singles, 6), f.SumPlogpP)

	merged := []int{0, 0, 0, 1, 1, 1}
	aMerged := AggregateModules(buildModules(g, f, merged, 2), f.SumPlogpP)

	if aMerged.L() >= aSingle.L() {
		t.Fatalf("merged L = %v not better than singleton L = %v", aMerged.L(), aSingle.L())
	}
	if aSingle.L() <= 0 || aMerged.L() <= 0 {
		t.Fatalf("codelengths must be positive: %v, %v", aSingle.L(), aMerged.L())
	}
}

func TestCodelengthOneModuleZeroExit(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	f := NewVertexFlow(g)
	all := []int{0, 0, 0, 0}
	a := AggregateModules(buildModules(g, f, all, 1), f.SumPlogpP)
	if a.QTotal != 0 {
		t.Fatalf("QTotal = %v, want 0 when everything is one module", a.QTotal)
	}
	// L reduces to -sum plogp(p_a) = entropy of the visit distribution.
	want := -f.SumPlogpP
	if !almostEqual(a.L(), want, 1e-12) {
		t.Fatalf("L = %v, want %v", a.L(), want)
	}
}

// makeMove constructs the Move for vertex u going from comm[u] to target.
func makeMove(g *graph.Graph, f *VertexFlow, comm []int, u, target int) Move {
	mv := Move{PU: f.P[u], ExitU: f.Exit[u]}
	inv2W := f.Norm()
	g.Neighbors(u, func(v int, w float64) {
		if v == u {
			return
		}
		if comm[v] == comm[u] {
			mv.WToFrom += w * inv2W
		}
		if comm[v] == target {
			mv.WToTo += w * inv2W
		}
	})
	return mv
}

// TestDeltaLMatchesRecompute is the core correctness test: the O(1)
// prepared delta-L must equal the difference of full recomputations,
// for random graphs, random assignments, and random moves.
func TestDeltaLMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 5 + rng.Intn(20)
		b := graph.NewBuilder(n)
		m := n + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if g.TotalWeight() == 0 {
			continue
		}
		f := NewVertexFlow(g)
		k := 2 + rng.Intn(4)
		comm := make([]int, n)
		for i := range comm {
			comm[i] = rng.Intn(k)
		}
		mods := buildModules(g, f, comm, k)
		a := AggregateModules(mods, f.SumPlogpP)

		u := rng.Intn(n)
		target := rng.Intn(k)
		if target == comm[u] {
			continue
		}
		mv := makeMove(g, f, comm, u, target)
		pr := Prepare(a, mods[comm[u]], mv)
		delta := pr.Delta(mods[target], mv.WToTo)

		// Reference: recompute everything after the move.
		comm2 := make([]int, n)
		copy(comm2, comm)
		comm2[u] = target
		a2 := AggregateModules(buildModules(g, f, comm2, k), f.SumPlogpP)
		want := a2.L() - a.L()
		if !almostEqual(delta, want, 1e-9) {
			t.Fatalf("trial %d: Delta = %v, recomputed = %v (diff %g)",
				trial, delta, want, delta-want)
		}
	}
}

func TestApplyMoveConsistentWithDeltaL(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
	})
	f := NewVertexFlow(g)
	comm := []int{0, 0, 0, 1, 1, 1}
	mods := buildModules(g, f, comm, 2)
	a := AggregateModules(mods, f.SumPlogpP)

	mv := makeMove(g, f, comm, 2, 1)
	pr := Prepare(a, mods[0], mv)
	delta := pr.Delta(mods[1], mv.WToTo)
	a2, nf, nt := ApplyMove(a, mods[0], mods[1], mv)
	if !almostEqual(a2.L()-a.L(), delta, 1e-12) {
		t.Fatalf("ApplyMove L change %v != Delta %v", a2.L()-a.L(), delta)
	}
	if nf.Members != 2 || nt.Members != 4 {
		t.Fatalf("member counts after move: %d, %d", nf.Members, nt.Members)
	}
	// Cross-check against full recompute.
	comm[2] = 1
	ref := AggregateModules(buildModules(g, f, comm, 2), f.SumPlogpP)
	if !almostEqual(a2.L(), ref.L(), 1e-12) {
		t.Fatalf("ApplyMove L = %v, recompute = %v", a2.L(), ref.L())
	}
}

func TestMoveToEmptyModuleAndBack(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	f := NewVertexFlow(g)
	comm := []int{0, 0, 0}
	mods := buildModules(g, f, comm, 2) // module 1 empty
	a := AggregateModules(mods, f.SumPlogpP)
	mv := makeMove(g, f, comm, 0, 1)
	a2, nf, nt := ApplyMove(a, mods[0], mods[1], mv)
	if nt.Members != 1 || nf.Members != 2 {
		t.Fatalf("after move: from=%+v to=%+v", nf, nt)
	}
	// Moving back must restore the original codelength.
	comm[0] = 1
	mv2 := makeMove(g, f, comm, 0, 0)
	a3, _, _ := ApplyMove(a2, nt, nf, mv2)
	if !almostEqual(a3.L(), a.L(), 1e-9) {
		t.Fatalf("L after round trip = %v, want %v", a3.L(), a.L())
	}
}

func TestEmptyModuleClampsToZero(t *testing.T) {
	g := graph.FromEdges(2, [][2]int{{0, 1}})
	f := NewVertexFlow(g)
	comm := []int{0, 1}
	mods := buildModules(g, f, comm, 2)
	a := AggregateModules(mods, f.SumPlogpP)
	mv := makeMove(g, f, comm, 0, 1)
	_, nf, _ := ApplyMove(a, mods[0], mods[1], mv)
	if nf.SumPr != 0 || nf.ExitPr != 0 || nf.Members != 0 {
		t.Fatalf("emptied module not clamped: %+v", nf)
	}
}

// Property: the delta-L of a no-op-like pair of opposite moves sums to ~0.
func TestPropertyMoveReversibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if g.TotalWeight() == 0 {
			return true
		}
		fl := NewVertexFlow(g)
		comm := make([]int, n)
		for i := range comm {
			comm[i] = rng.Intn(3)
		}
		mods := buildModules(g, fl, comm, 3)
		a := AggregateModules(mods, fl.SumPlogpP)
		u := rng.Intn(n)
		target := (comm[u] + 1) % 3
		mv := makeMove(g, fl, comm, u, target)
		a2, nf, nt := ApplyMove(a, mods[comm[u]], mods[target], mv)
		old := comm[u]
		comm[u] = target
		mvBack := makeMove(g, fl, comm, u, old)
		a3, _, _ := ApplyMove(a2, nt, nf, mvBack)
		return almostEqual(a3.L(), a.L(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregates computed incrementally across a chain of random
// moves agree with a from-scratch recompute at the end.
func TestPropertyIncrementalAggregatesStayConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if g.TotalWeight() == 0 {
			return true
		}
		fl := NewVertexFlow(g)
		k := 4
		comm := make([]int, n)
		for i := range comm {
			comm[i] = rng.Intn(k)
		}
		mods := buildModules(g, fl, comm, k)
		a := AggregateModules(mods, fl.SumPlogpP)
		for step := 0; step < 30; step++ {
			u := rng.Intn(n)
			target := rng.Intn(k)
			if target == comm[u] {
				continue
			}
			mv := makeMove(g, fl, comm, u, target)
			var nf, nt Module
			a, nf, nt = ApplyMove(a, mods[comm[u]], mods[target], mv)
			mods[comm[u]] = nf
			mods[target] = nt
			comm[u] = target
		}
		ref := AggregateModules(buildModules(g, fl, comm, k), fl.SumPlogpP)
		return almostEqual(a.L(), ref.L(), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceAfter is the textbook single-vertex move: the new module
// statistics, and all eight module log terms of the aggregate update
// computed afresh from the statistics. It never reads the cached terms.
func referenceAfter(a Aggregates, from, to Module, mv Move) Aggregates {
	nfSum, nfExit := from.SumPr-mv.PU, from.ExitPr-mv.ExitU+2*mv.WToFrom
	if from.Members-1 == 0 {
		nfSum, nfExit = 0, 0
	}
	ntSum, ntExit := to.SumPr+mv.PU, to.ExitPr+mv.ExitU-2*mv.WToTo
	for _, x := range []*float64{&nfSum, &nfExit, &ntSum, &ntExit} {
		if *x < 0 && *x > -1e-12 {
			*x = 0
		}
	}
	a.QTotal += nfExit + ntExit - from.ExitPr - to.ExitPr
	if a.QTotal < 0 {
		a.QTotal = 0
	}
	a.SumQLogQ += PlogP(nfExit) + PlogP(ntExit) - PlogP(from.ExitPr) - PlogP(to.ExitPr)
	a.SumQPLogQP += PlogP(nfExit+nfSum) + PlogP(ntExit+ntSum) -
		PlogP(from.ExitPr+from.SumPr) - PlogP(to.ExitPr+to.SumPr)
	return a
}

// referenceDeltaL is the textbook delta-L: both codelengths evaluated
// in full. It is the oracle the prepared kernel must match bit for bit.
func referenceDeltaL(a Aggregates, from, to Module, mv Move) float64 {
	return referenceAfter(a, from, to, mv).L() - a.L()
}

// checkCache fails unless m's cached log terms are exactly PlogP of its
// statistics.
func checkCache(t *testing.T, what string, m Module) {
	t.Helper()
	q, plogQ, plogQP := m.Terms()
	if math.Float64bits(q) != math.Float64bits(m.ExitPr) ||
		math.Float64bits(plogQ) != math.Float64bits(PlogP(m.ExitPr)) ||
		math.Float64bits(plogQP) != math.Float64bits(PlogP(m.ExitPr+m.SumPr)) {
		t.Fatalf("%s %+v: cached terms are not PlogP of its statistics", what, m)
	}
}

// TestPreparedDeltaBitIdentical checks the prepared kernel against the
// textbook delta-L by Float64bits on random module pairs, including an
// emptied from-module, an empty target, and flow residue inside the
// clamp window (-1e-12, 0). ApplyMove must match the textbook aggregate
// update the same way, and every module it or NewModule returns must
// carry exact cached terms.
func TestPreparedDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var clamped, emptied, emptyTo int
	for trial := 0; trial < 20000; trial++ {
		a := Aggregates{
			QTotal:     rng.Float64(),
			SumQLogQ:   -rng.Float64(),
			SumQPLogQP: -rng.Float64(),
			SumPlogpP:  -10 * rng.Float64(),
		}
		mv := Move{
			PU:      rng.Float64() / 100,
			ExitU:   rng.Float64() / 100,
			WToFrom: rng.Float64() / 400,
			WToTo:   rng.Float64() / 400,
		}
		from := NewModule(mv.PU+rng.Float64()/10, mv.ExitU+rng.Float64()/10, 1+rng.Intn(4))
		to := NewModule(rng.Float64()/10, rng.Float64()/10, 1+rng.Intn(4))
		residue := -rng.Float64() * 9e-13
		switch trial % 6 {
		case 0: // the vertex is the only member: from empties
			from = NewModule(mv.PU, mv.ExitU, 1)
		case 1: // escape into an empty module
			to = Module{}
		case 2: // from's statistics drop into the clamp window
			from = NewModule(mv.PU+residue, mv.ExitU-2*mv.WToFrom+residue, 2)
		case 3: // to's exit drops into the clamp window
			mv.WToTo = (to.ExitPr + mv.ExitU - residue) / 2
		}
		checkCache(t, "NewModule", from)
		checkCache(t, "NewModule", to)
		nf := leave(from, mv)
		nt := enter(to, mv.PU, mv.ExitU, mv.WToTo)
		if nf.Members == 0 {
			emptied++
		}
		if to.Members == 0 {
			emptyTo++
		}
		// Clamped values are assigned exactly 0.
		if (nf.Members > 0 && (nf.SumPr == 0 || nf.ExitPr == 0)) || nt.ExitPr == 0 {
			clamped++
		}

		pr := Prepare(a, from, mv)
		got := pr.Delta(to, mv.WToTo)
		want := referenceDeltaL(a, from, to, mv)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Delta = %v (%#x), reference = %v (%#x)",
				trial, got, math.Float64bits(got), want, math.Float64bits(want))
		}

		a2, nf2, nt2 := ApplyMove(a, from, to, mv)
		ref := referenceAfter(a, from, to, mv)
		for _, pair := range [][2]float64{
			{a2.QTotal, ref.QTotal}, {a2.SumQLogQ, ref.SumQLogQ}, {a2.SumQPLogQP, ref.SumQPLogQP},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("trial %d: ApplyMove aggregates %+v, reference %+v", trial, a2, ref)
			}
		}
		checkCache(t, "ApplyMove from", nf2)
		checkCache(t, "ApplyMove to", nt2)
	}
	if clamped == 0 || emptied == 0 || emptyTo == 0 {
		t.Fatalf("edge cases not exercised: clamped %d, emptied %d, empty target %d",
			clamped, emptied, emptyTo)
	}
}
