package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dinfomap"
)

const (
	// webGraphs is the number of web graphs a run clusters. The work of
	// one graph varies by about 10% between seeds, because sweep counts
	// differ; spreading a run's ops over several graphs keeps its
	// medians from hinging on one of them.
	webGraphs       = 6
	smallProcGraphs = 10
)

// graphSeed derives graph i's generator seed from the workload seed.
func graphSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// opFunc runs op number op on graph gi; tr is non-nil on traced ops.
type opFunc func(gi, op int, tr *tracer) (opRecord, *outcome, *dinfomap.Graph, error)

// passLoop runs passes over n graphs, one op per graph per pass, until
// dur has passed and at least minOps ops ran. Every pass covers the same
// graphs, so a faster program does more passes, not different work.
// With tr set, every second pass is traced. Each op's output is checked
// and must equal the graph's first output bit for bit; graph 0's first
// output must equal parity when parity is given.
func passLoop(n, minOps int, dur time.Duration, tr *tracer, parity *outcome, run opFunc) *runData {
	rd := &runData{Refs: make([]*outcome, n)}
	start := time.Now()
	for pass := 0; len(rd.Ops) < minOps || time.Since(start) < dur; pass++ {
		var opTr *tracer
		if pass%2 == 1 {
			opTr = tr
		}
		for gi := 0; gi < n; gi++ {
			op := len(rd.Ops)
			rec, o, g, err := run(gi, op, opTr)
			rec.Pass = pass
			if err == nil {
				var d time.Duration
				d, err = check(g, o, opTr, op)
				rec.CheckNs = d.Nanoseconds()
			}
			if err == nil {
				ref := rd.Refs[gi]
				if ref == nil && gi == 0 {
					ref = parity
				}
				if ref != nil {
					err = sameResult(ref, o)
				}
			}
			switch {
			case err != nil:
				rec.Err = err.Error()
			case rd.Refs[gi] == nil:
				rd.Refs[gi] = o
			}
			if err == nil && gi == 0 {
				if !rec.Traced && rd.First == nil {
					rd.First = o
				}
				if rec.Traced && rd.FirstTraced == nil {
					rd.FirstTraced = o
				}
			}
			rd.Ops = append(rd.Ops, rec)
		}
	}
	return rd
}

// runWeb generates the web graphs, hands their edge-list files to a
// worker process that runs the ops, and keeps the planted truths for
// scoring.
func (h *harness) runWeb() (*runData, error) {
	paths := make([]string, webGraphs)
	for i := range paths {
		g, truth, err := webGraph(graphSeed(h.seed, i))
		if err != nil {
			return nil, err
		}
		if paths[i], err = h.addGraph(g, fmt.Sprintf("web%d.txt", i)); err != nil {
			return nil, err
		}
		h.truths = append(h.truths, truth)
	}

	out := filepath.Join(h.dir, "worker.json")
	args := []string{
		"-graphs", strings.Join(paths, ","), "-out", out,
		"-seed", fmt.Sprint(h.seed),
		"-seconds", fmt.Sprint(h.seconds.Seconds()),
		"-min-ops", fmt.Sprint(h.wl.minOps),
		"-epoch", fmt.Sprint(h.epoch.UnixNano()),
	}
	if h.trace {
		args = append(args, "-trace")
	}
	ctx, cancel := context.WithTimeout(context.Background(), h.seconds+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=worker")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	rd := &runData{}
	if err := json.Unmarshal(data, rd); err != nil {
		return nil, fmt.Errorf("worker result: %w", err)
	}
	return rd, nil
}

// workerMain is the worker role: the op loop of web-goroutine, in a
// process of its own so that its peak resident set is the clustering's.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	graphs := fs.String("graphs", "", "comma-separated edge-list files")
	out := fs.String("out", "", "result file")
	seed := fs.Uint64("seed", 1, "algorithm seed")
	seconds := fs.Float64("seconds", 10, "measurement time")
	minOps := fs.Int("min-ops", 1, "ops to run even past the measurement time")
	epochNs := fs.Int64("epoch", 0, "run epoch, Unix nanoseconds")
	trace := fs.Bool("trace", false, "trace every second pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := strings.Split(*graphs, ",")
	var tr *tracer
	if *trace {
		tr = newTracer(time.Unix(0, *epochNs), "w")
	}
	dur := time.Duration(*seconds * float64(time.Second))
	rd := passLoop(len(paths), *minOps, dur, tr, nil, func(gi, op int, tr *tracer) (opRecord, *outcome, *dinfomap.Graph, error) {
		rec, o, g, err := webOp(paths[gi], *seed, tr, op)
		rec.Graph = gi
		if err == nil && tr != nil {
			rec.DelegateNs = delegateSpan(g, tr, op).Nanoseconds()
		}
		return rec, o, g, err
	})
	if *trace {
		evals, d, err := sequentialReference(paths[0], *seed, tr)
		if err != nil {
			return err
		}
		rd.SeqEvals, rd.SeqNs = evals, d.Nanoseconds()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rd.PeakRSSKB = ru.Maxrss
	if tr != nil {
		rd.Spans = tr.spans
	}
	return writeJSON(*out, rd)
}

// runSmallProc clusters small-proc's graph set with one pair of rank
// processes per op. Graph 0's first op must match an in-process
// goroutine run of the same graph and seed (transport parity).
func (h *harness) runSmallProc() (*runData, error) {
	graphs := make([]*dinfomap.Graph, smallProcGraphs)
	paths := make([]string, smallProcGraphs)
	for i := range graphs {
		g, truth, err := smallGraph(graphSeed(h.seed, i))
		if err != nil {
			return nil, err
		}
		if paths[i], err = h.addGraph(g, fmt.Sprintf("small%d.txt", i)); err != nil {
			return nil, err
		}
		graphs[i] = g
		h.truths = append(h.truths, truth)
	}
	parity := distributedOutcome(graphs[0], h.seed,
		dinfomap.RunDistributed(graphs[0], dinfomap.DistributedConfig{P: procs, Seed: h.seed}), &opRecord{})

	var tr *tracer
	if h.trace {
		tr = newTracer(h.epoch, "h")
	}
	var rankSpans []span
	rd := passLoop(smallProcGraphs, h.wl.minOps, h.seconds, tr, parity, func(gi, op int, tr *tracer) (opRecord, *outcome, *dinfomap.Graph, error) {
		rec, res, ranks, err := procOp(h.exe, h.dir, paths[gi], gi, h.seed, h.epoch, tr, op)
		if err != nil {
			return rec, nil, nil, err
		}
		o := distributedOutcome(graphs[gi], h.seed, res, &rec)
		for r, rr := range ranks {
			if rr.Journal != nil {
				addJournal(&rec, o, *rr.Journal, res.PerRankEvals[r])
			}
			rankSpans = append(rankSpans, rr.Spans...)
		}
		if tr != nil {
			rec.DelegateNs = delegateSpan(graphs[gi], tr, op).Nanoseconds()
		}
		return rec, o, graphs[gi], nil
	})
	if h.trace {
		evals, d, err := sequentialReference(paths[0], h.seed, tr)
		if err != nil {
			return nil, err
		}
		rd.SeqEvals, rd.SeqNs = evals, d.Nanoseconds()
		if rd.RTTNs, err = pingPong(2000, tr); err != nil {
			return nil, fmt.Errorf("ping-pong: %w", err)
		}
		rd.Spans = append(rankSpans, tr.spans...)
	}
	return rd, nil
}
