package main

import "dinfomap"

type metric struct {
	name, unit string
	value      float64
}

// okOps returns the successful ops, traced or untraced.
func okOps(ops []opRecord, traced bool) []opRecord {
	var out []opRecord
	for _, op := range ops {
		if op.Err == "" && op.Traced == traced {
			out = append(out, op)
		}
	}
	return out
}

// col collects one field of ops as float64s.
func col(ops []opRecord, f func(opRecord) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op)
	}
	return out
}

const nsPerS = 1e9

// passMedian is the median over passes of the mean of f over a pass's
// ops. A pass runs each graph of the set once, so its mean weighs every
// graph equally; a plain median over ops would jump between graphs
// whose costs differ.
func passMedian(ops []opRecord, f func(opRecord) float64) float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, op := range ops {
		sums[op.Pass] += f(op)
		counts[op.Pass]++
	}
	means := make([]float64, 0, len(sums))
	for p, s := range sums {
		means = append(means, s/float64(counts[p]))
	}
	return median(means)
}

// endToEnd computes the metrics a user sees, from untraced ops. Times
// are pass medians; the tail is a percentile over single ops.
func (h *harness) endToEnd(rd *runData) []metric {
	ops := okOps(rd.Ops, false)
	wall := func(o opRecord) float64 { return float64(o.WallNs) / nsPerS }
	var edges, total float64
	for _, op := range ops {
		edges += float64(h.prov.Edges[op.Graph])
		total += float64(op.WallNs) / nsPerS
	}
	setup := func(o opRecord) float64 { return float64(o.WallNs-o.StageNs) / nsPerS }
	rssKB := float64(rd.PeakRSSKB)
	if rssKB == 0 {
		rssKB = passMedian(ops, func(o opRecord) float64 { return float64(o.RSSKB) })
	}
	var lengths, nmis []float64
	for i, ref := range rd.Refs {
		if ref != nil {
			lengths = append(lengths, ref.Codelength)
			nmis = append(nmis, dinfomap.NMI(ref.Communities, h.truths[i]))
		}
	}
	return []metric{
		{"run_s", "s", passMedian(ops, wall)},
		{"run_s.tail", "s", percentile(col(ops, wall), h.wl.tailQ)},
		{"edges_per_s", "edges/s", ratio(edges, total)},
		{"setup_s", "s", passMedian(ops, setup)},
		{"peak_rss_mb", "MB", rssKB / 1024},
		{"codelength_bits", "bits", mean(lengths)},
		{"nmi", "ratio", mean(nmis)},
	}
}

// perLayer computes the per-layer metrics of a traced run. Counters come
// from graph 0's first untraced op (journal counters from its first
// traced op) and repeat exactly; walls are pass medians over traced
// ops. The transport metrics read 0 off the proc transport.
func (h *harness) perLayer(rd *runData) []metric {
	traced := okOps(rd.Ops, true)
	untraced := okOps(rd.Ops, false)
	medS := func(f func(opRecord) int64) float64 {
		return passMedian(traced, func(o opRecord) float64 { return float64(f(o)) }) / nsPerS
	}
	dist, ft := rd.First, rd.FirstTraced
	if dist == nil {
		dist = &outcome{}
	}
	if ft == nil {
		ft = &outcome{}
	}
	sweeps := float64(dist.Stage1Sweeps + dist.Stage2Sweeps)
	wall := func(o opRecord) float64 { return float64(o.WallNs) }
	tracedRun, untracedRun := passMedian(traced, wall), passMedian(untraced, wall)
	var retries float64
	for _, op := range rd.Ops {
		retries += float64(op.ConnectRetries)
	}

	ms := []metric{
		{"graph.read_s", "s", medS(func(o opRecord) int64 { return o.ReadNs })},
		{"partition.hubs", "count", float64(dist.Hubs)},
		{"partition.max_rank_arcs", "count", float64(dist.MaxRankArcs)},
		{"partition.max_ghosts", "count", float64(dist.MaxGhosts)},
		{"partition.edge_imbalance", "ratio", dist.EdgeImbalance},
		{"partition.delegate_s", "s", medS(func(o opRecord) int64 { return o.DelegateNs })},
		{"mapeq.ns_per_eval", "ns", passMedian(traced, func(o opRecord) float64 { return o.NsPerEval })},
		{"mapeq.codelength_s", "s", medS(func(o opRecord) int64 { return o.CheckNs })},
		{"core.delta_evals", "count", float64(dist.DeltaEvals)},
		{"core.stage1_sweeps", "count", float64(dist.Stage1Sweeps)},
		{"core.stage2_sweeps", "count", float64(dist.Stage2Sweeps)},
		{"core.outer_iters", "count", float64(dist.OuterIters)},
		{"core.eval_inflation", "ratio", ratio(float64(dist.DeltaEvals), float64(rd.SeqEvals))},
		{"core.move_yield", "ratio", ratio(float64(ft.Moves), float64(ft.DeltaEvals))},
		{"core.deferred_frac", "ratio", ratio(float64(ft.Deferred), float64(ft.Moves+ft.Deferred))},
		{"core.stage1_s", "s", medS(func(o opRecord) int64 { return o.Stage1Ns })},
		{"core.stage2_s", "s", medS(func(o opRecord) int64 { return o.Stage2Ns })},
	}
	for _, pm := range phaseMetrics {
		ms = append(ms, metric{pm.metric, "s", medS(func(o opRecord) int64 { return o.PhaseNs[pm.phase] })})
	}
	ms = append(ms,
		metric{"infomap.delta_evals", "count", float64(rd.SeqEvals)},
		metric{"infomap.run_s", "s", float64(rd.SeqNs) / nsPerS},
		metric{"mpi.collectives", "count", float64(dist.Collectives)},
		metric{"mpi.collectives_per_sweep", "ratio", ratio(float64(dist.Collectives), sweeps)},
		metric{"mpi.barrier_syncs", "count", float64(dist.BarrierSyncs)},
		metric{"mpi.msgs_max_rank", "count", float64(dist.MsgsMaxRank)},
		metric{"mpi.bytes_max_rank", "bytes", float64(dist.BytesMaxRank)},
	)
	for _, k := range byteKinds {
		ms = append(ms, metric{"mpi.bytes." + k, "bytes", float64(dist.BytesByKind[k])})
	}
	ms = append(ms,
		metric{"mpi.wait_s", "s", medS(func(o opRecord) int64 { return o.WaitNs })},
		metric{"transport.frames", "count", float64(dist.Frames)},
		metric{"transport.wire_bytes", "bytes", float64(dist.WireBytes)},
		metric{"transport.bytes_per_frame", "bytes", ratio(float64(dist.WireBytes), float64(dist.Frames))},
		metric{"transport.handshake_s", "s", medS(func(o opRecord) int64 { return o.HandshakeNs })},
		metric{"transport.connect_retries", "count", retries},
		metric{"transport.rtt_us", "us", median(rd.RTTNs) / 1e3},
		metric{"obs.trace_overhead_frac", "ratio", ratio(tracedRun, untracedRun) - 1},
		metric{"obs.journal_events", "count", float64(ft.JournalEvents)},
	)
	return ms
}
