package mapeq

import (
	"math"
	"math/rand"
	"testing"
)

// pruneCase is one prepared vertex and one candidate target.
type pruneCase struct {
	a    Aggregates
	from Module
	to   Module
	mv   Move
}

// randomPruneCase draws a consistent-looking move: Q covers the exits of
// from and to, and every flow is non-negative. kind selects one of the
// adversarial shapes the bound has to survive.
func randomPruneCase(rng *rand.Rand, kind int) pruneCase {
	mv := Move{
		PU:      rng.Float64() / 100,
		ExitU:   rng.Float64() / 100,
		WToFrom: rng.Float64() / 400,
		WToTo:   rng.Float64() / 400,
	}
	from := NewModule(mv.PU+rng.Float64()/10, mv.ExitU+rng.Float64()/10, 1+rng.Intn(4))
	to := NewModule(rng.Float64()/10, rng.Float64()/10, 1+rng.Intn(4))
	switch kind {
	case 0: // both singletons
		from = NewModule(mv.PU, mv.ExitU, 1)
		to = NewModule(rng.Float64()/100, rng.Float64()/100, 1)
	case 1: // q -> 0: a target with almost no exit
		to = NewModule(rng.Float64()/10, math.Ldexp(rng.Float64(), -40-rng.Intn(900)), 3)
	case 2: // q' clamped to 0, or landing just above it
		mv.WToTo = (to.ExitPr + mv.ExitU) / 2
		if rng.Intn(2) == 0 {
			mv.WToTo -= math.Ldexp(rng.Float64(), -50)
		}
	case 3: // tiny q+p
		to = NewModule(math.Ldexp(rng.Float64(), -60), math.Ldexp(rng.Float64(), -60), 1)
		mv.PU = math.Ldexp(rng.Float64(), -55)
		mv.ExitU = math.Ldexp(rng.Float64(), -55)
		mv.WToTo = mv.ExitU / 2 * rng.Float64()
	case 4: // w >> exitU: the vertex is almost all inside to
		mv.ExitU = math.Ldexp(rng.Float64(), -30)
		mv.WToTo = to.ExitPr / 2 * (0.5 + rng.Float64()/2)
	case 5: // big modules, tiny moves: the bound is tight here
		from = NewModule(0.3+rng.Float64()/10, 0.05+rng.Float64()/10, 500)
		to = NewModule(0.3+rng.Float64()/10, 0.05+rng.Float64()/10, 500)
		mv.PU, mv.ExitU = math.Ldexp(mv.PU, -10), math.Ldexp(mv.ExitU, -10)
		mv.WToFrom, mv.WToTo = math.Ldexp(mv.WToFrom, -10), math.Ldexp(mv.WToTo, -10)
	}
	// Q: the exits of from and to plus the rest of the partition, which
	// is tiny in the tiny-Q shape.
	rest := rng.Float64()
	if kind == 6 {
		rest = math.Ldexp(rng.Float64(), -45)
		from = NewModule(from.SumPr, math.Ldexp(rng.Float64(), -48), from.Members)
		to = NewModule(to.SumPr, math.Ldexp(rng.Float64(), -48), to.Members)
		mv.ExitU = math.Ldexp(rng.Float64(), -50)
		mv.WToFrom, mv.WToTo = mv.ExitU*rng.Float64(), mv.ExitU*rng.Float64()/2
	}
	a := Aggregates{
		QTotal:     from.ExitPr + to.ExitPr + rest,
		SumQLogQ:   PlogP(from.ExitPr) + PlogP(to.ExitPr) + PlogP(rest),
		SumQPLogQP: PlogP(from.ExitPr+from.SumPr) + PlogP(to.ExitPr+to.SumPr) - rng.Float64(),
		SumPlogpP:  -30 * rng.Float64(),
	}
	return pruneCase{a: a, from: from, to: to, mv: mv}
}

const pruneKinds = 7

// TestDeltaBelowSound checks the bound against the exact Delta on random
// and adversarial modules: the bound never exceeds the computed Delta by
// more than 1e-13, a ruled-out candidate's Delta is at least the limit,
// and an admitted one gets Delta bit for bit. The same holds for
// EscapeBelow and the move into an empty module.
func TestDeltaBelowSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var bounded, pruned, escapesPruned int
	worst := math.Inf(-1)
	for trial := 0; trial < 200000; trial++ {
		c := randomPruneCase(rng, trial%pruneKinds)
		pr := Prepare(c.a, c.from, c.mv)
		exact := pr.Delta(c.to, c.mv.WToTo)
		sumPr, exitPr := entered(c.to, c.mv.PU, c.mv.ExitU, c.mv.WToTo)
		if lb, ok := pr.lowerBound(c.to, sumPr, exitPr); ok {
			bounded++
			if lb-exact > worst {
				worst = lb - exact
			}
			if lb > exact+1e-13 {
				t.Fatalf("trial %d: bound %v above Delta %v by %g: %+v", trial, lb, exact, lb-exact, c)
			}
		}
		for _, limit := range []float64{0, exact, exact - pruneMargin, exact - 1e-15, exact + 1e-15,
			exact - math.Abs(exact)*rng.Float64(), exact + math.Abs(exact)*rng.Float64()} {
			d, ok := pr.DeltaBelow(c.to, c.mv.WToTo, limit)
			if !ok {
				pruned++
				if exact < limit {
					t.Fatalf("trial %d: pruned at limit %v, but Delta = %v: %+v", trial, limit, exact, c)
				}
				continue
			}
			if math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("trial %d: DeltaBelow = %v, Delta = %v", trial, d, exact)
			}
		}
		// The escape into an empty module, with the singleton given.
		escape := pr.Delta(Module{}, 0)
		term := SingletonTerm(c.mv.PU, c.mv.ExitU)
		for _, limit := range []float64{0, escape, escape - 1e-15, escape + 1e-15, exact} {
			d, ok := pr.EscapeBelow(term, limit)
			if !ok {
				escapesPruned++
				if escape < limit {
					t.Fatalf("trial %d: escape pruned at limit %v, but Delta = %v: %+v", trial, limit, escape, c)
				}
			} else if math.Float64bits(d) != math.Float64bits(escape) {
				t.Fatalf("trial %d: EscapeBelow = %v, Delta = %v", trial, d, escape)
			}
		}
	}
	if bounded < 100000 || pruned < 100000 || escapesPruned < 10000 {
		t.Fatalf("bound too rarely exercised: %d bounded, %d pruned, %d escapes pruned", bounded, pruned, escapesPruned)
	}
	t.Logf("%d bounded, %d pruned, %d escapes pruned, worst bound - Delta = %g", bounded, pruned, escapesPruned, worst)
}

// argmin runs the sweep's running-best loop over candidate targets and
// returns the chosen index (-1 = stay) and its delta.
func argmin(n int, eval func(k int, best float64) (float64, bool)) (int, float64) {
	best, bestK := 0.0, -1
	for k := 0; k < n; k++ {
		if d, ok := eval(k, best); ok && d < best-1e-15 {
			best, bestK = d, k
		}
	}
	return bestK, best
}

// TestPrunedArgminMatchesExhaustive checks that the pruned running-best
// loop picks the same target with the same delta as the exhaustive one,
// on random candidate lists salted with exact ties and near-ties whose
// deltas differ by about 1e-15.
func TestPrunedArgminMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var candidates, pruned, moved int
	for trial := 0; trial < 20000; trial++ {
		c := randomPruneCase(rng, 5)
		if trial%2 == 1 {
			c = randomPruneCase(rng, rng.Intn(pruneKinds))
		}
		pr := Prepare(c.a, c.from, c.mv)
		n := 2 + rng.Intn(20)
		tos := make([]Module, 0, n)
		ws := make([]float64, 0, n)
		for len(tos) < n {
			to, w := c.to, c.mv.WToTo
			switch rng.Intn(4) {
			case 0: // another random target
				to = NewModule(c.to.SumPr*2*rng.Float64(), c.to.ExitPr*2*rng.Float64(), 1+rng.Intn(9))
				w = c.mv.WToTo * 2 * rng.Float64()
			case 1: // an exact tie with an earlier candidate
				if k := len(tos); k > 0 {
					j := rng.Intn(k)
					to, w = tos[j], ws[j]
				}
			case 2: // a near-tie: the link weight moved by a few ulps
				if k := len(tos); k > 0 {
					j := rng.Intn(k)
					to, w = tos[j], ws[j]
					for s := rng.Intn(8); s > 0; s-- {
						w = math.Nextafter(w, math.Inf(2*rng.Intn(2)-1))
					}
				}
			}
			tos = append(tos, to)
			ws = append(ws, w)
		}
		wantK, want := argmin(n, func(k int, _ float64) (float64, bool) { return pr.Delta(tos[k], ws[k]), true })
		gotK, got := argmin(n, func(k int, best float64) (float64, bool) {
			candidates++
			d, ok := pr.DeltaBelow(tos[k], ws[k], best)
			if !ok {
				pruned++
			}
			return d, ok
		})
		if gotK != wantK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: pruned loop picked %d (%v), exhaustive %d (%v)", trial, gotK, got, wantK, want)
		}
		if wantK >= 0 {
			moved++
		}
	}
	if pruned == 0 || moved == 0 {
		t.Fatalf("vacuous: %d of %d candidates pruned, %d moves", pruned, candidates, moved)
	}
	t.Logf("%d of %d candidates pruned, %d of 20000 vertices moved", pruned, candidates, moved)
}
