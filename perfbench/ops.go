package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"dinfomap"
)

// procs is the rank count of every distributed op: the host has two
// cores, and more ranks than cores would measure oversubscription.
const procs = 2

// byteKinds are the traffic kinds reported as mpi.bytes.<kind>, named as
// in the run report's comms.by_kind.
var byteKinds = []string{
	"module_info", "hub_candidate", "ghost_update", "module_partial",
	"merge_shuffle", "assignment", "setup",
}

// phaseMetrics maps journal phase names to their metric names.
var phaseMetrics = []struct{ phase, metric string }{
	{"FindBestModule", "core.phase.find_best_module_s"},
	{"BroadcastDelegates", "core.phase.broadcast_delegates_s"},
	{"SwapBoundaryInfo", "core.phase.swap_boundary_info_s"},
	{"refresh-round1", "core.phase.refresh_round1_s"},
	{"refresh-round2", "core.phase.refresh_round2_s"},
	{"merge-shuffle", "core.phase.merge_shuffle_s"},
	{"Other", "core.phase.other_s"},
}

// webGraph is the input of web-goroutine: the hub-heavy,
// degree-sorted UK-2005 stand-in with its mixing raised to 0.4, so that
// stage-1 sweeps do many delta-L evaluations. It is cut to a quarter of
// the stand-in's vertices and communities (same degrees and community
// sizes), so that a run holds enough short ops for its medians to ride
// out the host's slow spells.
func webGraph(seed uint64) (*dinfomap.Graph, []int, error) {
	ds, err := dinfomap.LookupDataset("uk-2005")
	if err != nil {
		return nil, nil, err
	}
	ds.N, ds.NumComms = ds.N/4, ds.NumComms/4
	ds.Mixing = 0.4
	ds.Seed = seed
	g, truth := ds.Generate()
	return g, truth, nil
}

// smallGraph is one small-proc input: the Amazon stand-in under seed.
func smallGraph(seed uint64) (*dinfomap.Graph, []int, error) {
	ds, err := dinfomap.LookupDataset("amazon")
	if err != nil {
		return nil, nil, err
	}
	ds.Seed = seed
	g, truth := ds.Generate()
	return g, truth, nil
}

func readGraph(path string) (*dinfomap.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dinfomap.ReadEdgeList(f)
}

func writeGraph(path string, g *dinfomap.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := dinfomap.WriteEdgeList(f, g); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// opRecord is one timed op. Wall times are measured; the traced fields
// are filled only on traced ops.
type opRecord struct {
	Graph  int    `json:"graph"`
	Pass   int    `json:"pass"`
	Traced bool   `json:"traced"`
	Err    string `json:"err,omitempty"`
	// WallNs runs from input handoff to the returned partition.
	WallNs int64 `json:"wall_ns"`
	// ReadNs is ReadEdgeList (the slowest rank's on proc).
	ReadNs int64 `json:"read_ns"`
	// StageNs is the run's reported Stage1Wall+Stage2Wall.
	StageNs  int64 `json:"stage_ns"`
	Stage1Ns int64 `json:"stage1_ns"`
	Stage2Ns int64 `json:"stage2_ns"`
	// RSSKB is the op's peak resident set, maximum over rank processes
	// (proc ops only; web workers report one peak per run).
	RSSKB int64 `json:"rss_kb"`
	// WaitNs is late-sender plus barrier wait, maximum over ranks.
	WaitNs         int64 `json:"wait_ns"`
	HandshakeNs    int64 `json:"handshake_ns"`
	ConnectRetries int64 `json:"connect_retries"`
	// PhaseNs is the journal's per-phase wall, maximum over ranks.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
	// NsPerEval is FindBestModule wall over delta-L evaluations,
	// maximum over ranks.
	NsPerEval  float64 `json:"eval_ns"`
	CheckNs    int64   `json:"check_ns"`    // CodelengthOf on the partition
	DelegateNs int64   `json:"delegate_ns"` // AnalyzeDelegate on the graph
}

// outcome is the deterministic part of an op: the partition and every
// counter that must repeat exactly for the same graph and seed.
type outcome struct {
	Communities       []int   `json:"communities,omitempty"`
	NumModules        int     `json:"num_modules"`
	Codelength        float64 `json:"codelength"`
	InitialCodelength float64 `json:"initial_codelength"`
	DeltaEvals        int64   `json:"delta_evals"`
	Stage1Sweeps      int     `json:"stage1_sweeps"`
	Stage2Sweeps      int     `json:"stage2_sweeps"`
	OuterIters        int     `json:"outer_iters"`

	Hubs          int     `json:"hubs"`
	MaxRankArcs   int     `json:"max_rank_arcs"`
	MaxGhosts     int     `json:"max_ghosts"`
	EdgeImbalance float64 `json:"edge_imbalance"`

	Collectives  int64            `json:"collectives"`
	BarrierSyncs int64            `json:"barrier_syncs"`
	MsgsMaxRank  int64            `json:"msgs_max_rank"`
	BytesMaxRank int64            `json:"bytes_max_rank"`
	BytesByKind  map[string]int64 `json:"bytes_by_kind,omitempty"`
	Frames       int64            `json:"frames"`
	WireBytes    int64            `json:"wire_bytes"`

	// Journal counters, from traced ops only.
	JournalEvents int64 `json:"journal_events"`
	Moves         int64 `json:"moves"`
	Deferred      int64 `json:"deferred"`
}

// distributedOutcome reads a finished distributed run through its
// dinfomap-run-report/v1 report and fills the measured fields of rec.
func distributedOutcome(g *dinfomap.Graph, seed uint64, res *dinfomap.DistributedResult, rec *opRecord) *outcome {
	rep := dinfomap.BuildRunReport(g, dinfomap.DistributedConfig{P: procs, Seed: seed}, res)
	o := &outcome{
		Communities:       res.Communities,
		NumModules:        rep.Quality.NumModules,
		Codelength:        rep.Quality.Codelength,
		InitialCodelength: rep.Quality.InitialCodelength,
		DeltaEvals:        rep.DeltaEvaluations,
		Stage1Sweeps:      rep.Convergence.Stage1Sweeps,
		Stage2Sweeps:      rep.Convergence.Stage2Sweeps,
		OuterIters:        rep.Convergence.OuterIterations,
		Hubs:              rep.Partition.NumHubs,
		MaxRankArcs:       rep.Partition.MaxEdges,
		MaxGhosts:         rep.Partition.MaxGhosts,
		EdgeImbalance:     rep.Partition.EdgeImbalance,
		BytesMaxRank:      rep.MaxRankBytes,
		BytesByKind:       make(map[string]int64, len(byteKinds)),
	}
	for _, k := range byteKinds {
		if rep.Comms != nil {
			c := rep.Comms.ByKind[k]
			o.BytesByKind[k] = c.BytesSent + c.CollectiveBytes
		}
	}
	for _, rr := range rep.Ranks {
		o.Collectives = max(o.Collectives, rr.Comm.Collectives)
		o.BarrierSyncs = max(o.BarrierSyncs, rr.Comm.BarrierSyncs)
		o.MsgsMaxRank = max(o.MsgsMaxRank, rr.Comm.MsgsSent+rr.Comm.CollectiveMsgs)
		rec.WaitNs = max(rec.WaitNs, rr.Comm.RecvBlockedWallNs+rr.Comm.BarrierWaitWallNs)
		if t := rr.Transport; t != nil {
			o.Frames += t.FramesSent
			o.WireBytes += t.BytesSent
			rec.HandshakeNs = max(rec.HandshakeNs, t.HandshakeWallNs)
			rec.ConnectRetries += t.ConnectRetries
		}
	}
	rec.Stage1Ns = rep.Timing.Stage1WallNs
	rec.Stage2Ns = rep.Timing.Stage2WallNs
	rec.StageNs = rec.Stage1Ns + rec.Stage2Ns
	return o
}

// journalStats is what one rank's journal says about a traced op.
type journalStats struct {
	PhaseNs  map[string]int64 `json:"phase_ns"`
	Events   int64            `json:"events"`
	Moves    int64            `json:"moves"`
	Deferred int64            `json:"deferred"`
}

func readJournal(j *dinfomap.RunJournal, r int) journalStats {
	js := journalStats{PhaseNs: make(map[string]int64)}
	for ph, d := range j.PhaseWall(r) {
		js.PhaseNs[ph] = d.Nanoseconds()
	}
	for _, ev := range j.Rank(r).Events() {
		js.Events++
		js.Moves += int64(ev.Moves)
		js.Deferred += int64(ev.Deferred)
	}
	return js
}

// addJournal folds rank stats into the op: walls take the maximum over
// ranks, counts sum.
func addJournal(rec *opRecord, o *outcome, js journalStats, evals int64) {
	if rec.PhaseNs == nil {
		rec.PhaseNs = make(map[string]int64)
	}
	for ph, ns := range js.PhaseNs {
		rec.PhaseNs[ph] = max(rec.PhaseNs[ph], ns)
	}
	if evals > 0 {
		rec.NsPerEval = max(rec.NsPerEval, float64(js.PhaseNs["FindBestModule"])/float64(evals))
	}
	o.JournalEvents += js.Events
	o.Moves += js.Moves
	o.Deferred += js.Deferred
}

// check verifies an op's output on its graph: one dense module id per
// vertex agreeing with NumModules, and a codelength that CodelengthOf
// reproduces within 1e-9 relative and that is below the initial one. It
// returns the CodelengthOf time.
func check(g *dinfomap.Graph, o *outcome, tr *tracer, op int) (time.Duration, error) {
	n := g.NumVertices()
	if len(o.Communities) != n {
		return 0, fmt.Errorf("partition has %d entries for %d vertices", len(o.Communities), n)
	}
	used := make([]bool, o.NumModules)
	for u, c := range o.Communities {
		if c < 0 || c >= o.NumModules {
			return 0, fmt.Errorf("vertex %d has module %d outside [0,%d)", u, c, o.NumModules)
		}
		used[c] = true
	}
	if i := slices.Index(used, false); i >= 0 {
		return 0, fmt.Errorf("module id %d of %d is unused: ids are not dense", i, o.NumModules)
	}
	s := tr.begin("mapeq.codelength", op, "")
	start := time.Now()
	l := dinfomap.CodelengthOf(g, o.Communities)
	d := time.Since(start)
	tr.end(s)
	if math.Abs(l-o.Codelength) > 1e-9*math.Abs(o.Codelength) {
		return d, fmt.Errorf("CodelengthOf gives %.12f, run reported %.12f", l, o.Codelength)
	}
	if !(o.Codelength < o.InitialCodelength) {
		return d, fmt.Errorf("codelength %.9f is not below the initial %.9f", o.Codelength, o.InitialCodelength)
	}
	return d, nil
}

// sameResult requires b's partition and codelength to equal a's bit for
// bit: ops on one graph and seed are deterministic, on either transport.
func sameResult(a, b *outcome) error {
	if math.Float64bits(a.Codelength) != math.Float64bits(b.Codelength) {
		return fmt.Errorf("codelength %.17g differs from the reference %.17g", b.Codelength, a.Codelength)
	}
	if !slices.Equal(a.Communities, b.Communities) {
		return errors.New("partition differs from the reference partition")
	}
	return nil
}

// webOp is one web-goroutine op on the edge-list file at path:
// ReadEdgeList, then RunDistributed over the goroutine transport. A
// non-nil tracer records spans and attaches a RunJournal.
func webOp(path string, seed uint64, tr *tracer, op int) (rec opRecord, o *outcome, g *dinfomap.Graph, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rec.Traced = tr != nil
	root := tr.begin("op", op, "")
	start := time.Now()
	rs := tr.begin("graph.read", op, tr.id(root))
	g, err = readGraph(path)
	tr.end(rs)
	rec.ReadNs = time.Since(start).Nanoseconds()
	if err != nil {
		return rec, nil, nil, err
	}
	cfg := dinfomap.DistributedConfig{P: procs, Seed: seed}
	if tr != nil {
		cfg.Journal = dinfomap.NewRunJournal(procs)
	}
	cs := tr.begin("core.run", op, tr.id(root))
	res := dinfomap.RunDistributed(g, cfg)
	tr.end(cs)
	rec.WallNs = time.Since(start).Nanoseconds()
	tr.end(root)
	o = distributedOutcome(g, seed, res, &rec)
	if cfg.Journal != nil {
		for r := 0; r < procs; r++ {
			addJournal(&rec, o, readJournal(cfg.Journal, r), res.PerRankEvals[r])
		}
	}
	return rec, o, g, nil
}

// delegateSpan times the public delegate-layout analysis of g.
func delegateSpan(g *dinfomap.Graph, tr *tracer, op int) time.Duration {
	s := tr.begin("partition.delegate", op, "")
	start := time.Now()
	dinfomap.AnalyzeDelegate(g, procs)
	d := time.Since(start)
	tr.end(s)
	return d
}

// sequentialReference runs RunSequential on the graph at path once, as
// the base of core.eval_inflation and the infomap layer's numbers, and
// returns its delta-L evaluations and wall time.
func sequentialReference(path string, seed uint64, tr *tracer) (int64, time.Duration, error) {
	g, err := readGraph(path)
	if err != nil {
		return 0, 0, err
	}
	s := tr.begin("infomap.run", -1, "")
	start := time.Now()
	res := dinfomap.RunSequential(g, dinfomap.SequentialConfig{Seed: seed})
	d := time.Since(start)
	tr.end(s)
	return res.DeltaEvaluations, d, nil
}
