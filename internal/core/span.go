package core

import (
	"time"

	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
	"dinfomap/internal/trace"
)

// phaseCosts accumulates one rank's modeled cost per phase, keyed by
// obs phase name.
type phaseCosts map[string]trace.RankCost

// span is one open phase span: the journal stamp and the comm-stats
// snapshot taken when the phase began. Every phase site in the package
// opens one with openSpan and closes it with closeSpan, so the modeled
// cost and the journal event of a phase come from one stats diff. It is
// a plain value: opening and closing a span allocates nothing.
type span struct {
	phase obs.PhaseID
	start time.Duration
	mark  mpi.Stats
}

// openSpan begins a span of phase on this level.
func (lv *level) openSpan(phase obs.PhaseID) span {
	return span{phase: phase, start: lv.jlog.Now(), mark: lv.c.Stats()}
}

// closeSpan ends sp, booking ev.Ops as the phase's modeled compute.
func (lv *level) closeSpan(sp span, costs phaseCosts, ev obs.Event) {
	lv.closeSpanOps(sp, costs, ev.Ops, ev)
}

// closeSpanOps ends sp. It diffs the comm stats against the span's
// snapshot once, adds modelOps and the sent traffic to costs under the
// phase name, and journals ev stamped with the span's phase, stage,
// timing, that same traffic and the blocked time. ev carries the
// site's own fields: Iter, Ops, Moves, Deferred and Stale.
func (lv *level) closeSpanOps(sp span, costs phaseCosts, modelOps int64, ev obs.Event) {
	d := lv.c.Stats().Sub(sp.mark)
	c := trace.RankCost{
		Ops:   modelOps,
		Msgs:  d.MsgsSent + d.CollectiveMsgs,
		Bytes: d.BytesSent + d.CollectiveBytes,
	}
	name := sp.phase.Name()
	costs[name] = costs[name].Add(c)
	ev.Stage, ev.Outer, ev.Phase = lv.jstage, lv.jouter, sp.phase
	ev.Start, ev.End = sp.start, lv.jlog.Now()
	ev.Msgs, ev.Bytes, ev.WaitNs = c.Msgs, c.Bytes, d.BlockedNs()
	lv.jlog.Emit(ev)
}
