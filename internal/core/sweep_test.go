package core

import (
	"fmt"
	"sync"
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/mapeq"
	"dinfomap/internal/mpi"
	"dinfomap/internal/partition"
)

// sweepLog records one sweep's evaluations through sweepScratch.observe.
type sweepLog struct {
	pass []int // pass of each evaluation, in order
	idx  []int // eval index evaluated
	out  []evalOutcome
}

func (l *sweepLog) reset() { l.pass, l.idx, l.out = l.pass[:0], l.idx[:0], l.out[:0] }

func (l *sweepLog) record(pass, i int, r evalOutcome) {
	l.pass = append(l.pass, pass)
	l.idx = append(l.idx, i)
	l.out = append(l.out, r)
}

// checkFrontier verifies the active-set rule on one sweep's log: pass 0
// evaluates every non-hub eval vertex once; every later pass evaluates
// exactly the vertices the previous pass marked — the local non-hub
// eval neighbours of its movers plus its held (deferred or blocked)
// vertices — each once; and no pass follows a pass without moves.
func checkFrontier(lv *level, l *sweepLog) (errs []string, frontierEvals, holds int) {
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	want := map[int]bool{}
	for i, u := range lv.evalVerts {
		if lv.isHub == nil || !lv.isHub[u] {
			want[i] = true
		}
	}
	for k := 0; k < len(l.pass); {
		pass := l.pass[k]
		got := map[int]bool{}
		marked := map[int]bool{}
		moves := 0
		for ; k < len(l.pass) && l.pass[k] == pass; k++ {
			i := l.idx[k]
			if got[i] {
				bad("pass %d evaluates eval index %d twice", pass, i)
			}
			got[i] = true
			switch l.out[k] {
			case evalMove:
				moves++
				for j := lv.evalOff[i]; j < lv.evalOff[i+1]; j++ {
					v := lv.adjV[j]
					if n := lv.evalIndexOf[v]; n >= 0 && !lv.isHub[v] {
						marked[int(n)] = true
					}
				}
			case evalHold:
				holds++
				marked[i] = true
			}
			if pass > 0 {
				frontierEvals++
			}
		}
		if len(got) != len(want) {
			bad("pass %d evaluates %d vertices, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				bad("pass %d skips marked eval index %d", pass, i)
			}
		}
		if k < len(l.pass) {
			if l.pass[k] != pass+1 {
				bad("pass %d follows pass %d", l.pass[k], pass)
			}
			if moves == 0 {
				bad("pass %d follows move-free pass %d", l.pass[k], pass)
			}
		}
		want = marked
	}
	return errs, frontierEvals, holds
}

// TestSweepFrontierInvariant drives stage 1 at p = 3 with delegates,
// damping and the minimum-label rule live, and checks every sweep of
// every rank against the active-set rule.
func TestSweepFrontierInvariant(t *testing.T) {
	g, _ := gen.PlantedPartition(3, gen.PlantedConfig{
		N: 900, NumComms: 15, AvgDegree: 10, Mixing: 0.3, DegreeGamma: 2.2,
	})
	const p = 3
	cfg := Config{P: p, Seed: 5, DHigh: 30}.withDefaults()
	layout := partition.Delegate(g, p, partition.DelegateOptions{DHigh: cfg.DHigh})
	if layout.NumHubs == 0 {
		t.Fatal("test graph has no delegated hubs")
	}
	flow := mapeq.NewVertexFlow(g)

	var mu sync.Mutex
	var errs []string
	frontierEvals, holds := 0, 0
	mpi.Run(p, func(c *mpi.Comm) {
		lv := newStage1Level(c, &cfg, layout, flow.P, flow.Exit, flow.Norm(),
			flow.SumPlogpP, cfg.Seed)
		costs := make(phaseCosts)
		lv.refresh(costs, -1)
		s := lv.newScratch()
		var log sweepLog
		s.observe = log.record
		for iter := 0; iter < 10; iter++ {
			lv.dampP = dampProb(iter)
			log.reset()
			_, _, cands := lv.sweep(s, passBudget(iter))
			e, fe, h := checkFrontier(lv, &log)
			mu.Lock()
			for _, msg := range e {
				errs = append(errs, fmt.Sprintf("rank %d sweep %d: %s", c.Rank(), iter, msg))
			}
			frontierEvals += fe
			holds += h
			mu.Unlock()
			lv.broadcastDelegates(cands)
			lv.swapGhostComms()
			lv.refresh(costs, int32(iter))
		}
	})
	for i, msg := range errs {
		if i == 10 {
			t.Errorf("... and %d more", len(errs)-10)
			break
		}
		t.Error(msg)
	}
	if frontierEvals == 0 || holds == 0 {
		t.Fatalf("frontier evaluations %d, held vertices %d: the rule was not exercised", frontierEvals, holds)
	}
}
