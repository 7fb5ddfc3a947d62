package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dinfomap"
)

const (
	// opTimeout bounds one small-proc op, rank processes included.
	opTimeout      = 60 * time.Second
	connectTimeout = 10 * time.Second
	rankTimeout    = 30 * time.Second
)

// rankResult is what a rank process hands back beside its artifact.
type rankResult struct {
	Artifact *dinfomap.RankArtifact `json:"artifact"`
	ReadNs   int64                  `json:"read_ns"`
	Journal  *journalStats          `json:"journal,omitempty"`
	Spans    []span                 `json:"spans,omitempty"`
}

// procOp is one small-proc op: two rank OS processes running this
// binary in rank role, meshed over TCP loopback through ListenRanks and
// DialProcTransport, each reading the edge-list file; then the parent
// assembles their artifacts. The wall runs from ListenRanks to the
// assembled result.
func procOp(exe, dir, graphPath string, gi int, seed uint64, epoch time.Time, tr *tracer, op int) (rec opRecord, res *dinfomap.DistributedResult, ranks []rankResult, err error) {
	rec.Graph, rec.Traced = gi, tr != nil
	root := tr.begin("op", op, "")
	start := time.Now()
	lns, addrs, err := dinfomap.ListenRanks("tcp", procs, "")
	if err != nil {
		return rec, nil, nil, err
	}
	defer closeListeners(lns)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	sp := tr.begin("proc.spawn", op, tr.id(root))
	outs := make([]string, procs)
	var cmds []*exec.Cmd
	for r := 0; r < procs; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("rank%d.json", r))
		args := []string{
			"-rank", strconv.Itoa(r),
			"-addrs", strings.Join(addrs, ","),
			"-graph", graphPath,
			"-seed", strconv.FormatUint(seed, 10),
			"-epoch", strconv.FormatInt(epoch.UnixNano(), 10),
			"-out", outs[r],
			"-op", strconv.Itoa(op),
		}
		if tr != nil {
			args = append(args, "-trace", "-parent", tr.id(root))
		}
		var f *os.File
		f, err = lns[r].(*net.TCPListener).File()
		if err != nil {
			break
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Env = append(os.Environ(), roleEnv+"=rank")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.ExtraFiles = []*os.File{f} // fd 3 in the rank
		err = cmd.Start()
		f.Close()
		if err != nil {
			break
		}
		cmds = append(cmds, cmd)
	}
	tr.end(sp)
	closeListeners(lns)
	if err != nil {
		cancel() // kills whatever started
	}
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("spawning ranks: %w", err))
	}
	for r, cmd := range cmds {
		if werr := cmd.Wait(); werr != nil {
			errs = append(errs, fmt.Errorf("rank %d process: %w", r, werr))
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rec.RSSKB = max(rec.RSSKB, ru.Maxrss)
		}
	}
	if len(errs) > 0 {
		return rec, nil, nil, errors.Join(errs...)
	}

	as := tr.begin("core.assemble", op, tr.id(root))
	ranks = make([]rankResult, procs)
	arts := make([]*dinfomap.RankArtifact, procs)
	for r := range ranks {
		data, err := os.ReadFile(outs[r])
		if err != nil {
			return rec, nil, nil, fmt.Errorf("rank %d result: %w", r, err)
		}
		if err := json.Unmarshal(data, &ranks[r]); err != nil {
			return rec, nil, nil, fmt.Errorf("rank %d result: %w", r, err)
		}
		arts[r] = ranks[r].Artifact
		rec.ReadNs = max(rec.ReadNs, ranks[r].ReadNs)
	}
	res, err = dinfomap.AssembleDistributed(dinfomap.DistributedConfig{P: procs, Seed: seed}, arts)
	tr.end(as)
	rec.WallNs = time.Since(start).Nanoseconds()
	tr.end(root)
	return rec, res, ranks, err
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close() // double close after hand-off is harmless
	}
}

// rankMain is the rank role: one rank of a small-proc op.
func rankMain(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	rank := fs.Int("rank", 0, "this rank's id")
	addrs := fs.String("addrs", "", "comma-separated rank addresses")
	graphPath := fs.String("graph", "", "edge-list file")
	seed := fs.Uint64("seed", 1, "algorithm seed")
	epochNs := fs.Int64("epoch", 0, "shared run epoch, Unix nanoseconds")
	out := fs.String("out", "", "result file")
	op := fs.Int("op", 0, "op id for spans")
	trace := fs.Bool("trace", false, "attach a rank journal and record spans")
	parent := fs.String("parent", "", "parent span id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	epoch := time.Unix(0, *epochNs)
	var tr *tracer
	if *trace {
		tr = newTracer(epoch, fmt.Sprintf("op%d.r%d.", *op, *rank))
	}
	root := tr.begin("proc.rank", *op, *parent)

	lf := os.NewFile(3, "rank-listener")
	if lf == nil {
		return errors.New("missing inherited listener on fd 3")
	}
	ln, err := net.FileListener(lf)
	lf.Close() // FileListener holds its own dup
	if err != nil {
		return fmt.Errorf("inherited listener: %w", err)
	}

	start := time.Now()
	rs := tr.begin("graph.read", *op, tr.id(root))
	g, err := readGraph(*graphPath)
	tr.end(rs)
	readNs := time.Since(start).Nanoseconds()
	if err != nil {
		ln.Close()
		return err
	}

	ds := tr.begin("transport.dial", *op, tr.id(root))
	t, err := dinfomap.DialProcTransport(dinfomap.ProcTransportConfig{
		Rank: *rank, Size: procs,
		Listener: ln, Addrs: strings.Split(*addrs, ","), Network: "tcp",
		Epoch:   epoch,
		Version: dinfomap.ReadBuildProvenance().String(),
	}, dinfomap.WithConnectTimeout(connectTimeout), dinfomap.WithRankTimeout(rankTimeout))
	tr.end(ds)
	if err != nil {
		return err
	}

	cfg := dinfomap.DistributedConfig{P: procs, Seed: *seed}
	if *trace {
		cfg.Journal = dinfomap.NewRankJournal(*rank, procs, epoch)
	}
	cs := tr.begin("core.rank", *op, tr.id(root))
	art, err := dinfomap.RunDistributedRank(g, cfg, t)
	tr.end(cs)
	cfg.Journal.Finish()
	if err != nil {
		return err
	}
	rr := rankResult{Artifact: art, ReadNs: readNs}
	if cfg.Journal != nil {
		js := readJournal(cfg.Journal, *rank)
		rr.Journal = &js
	}
	tr.end(root)
	if tr != nil {
		rr.Spans = tr.spans
	}
	return writeJSON(*out, rr)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// pingPong times n Send/Recv round trips of a 64-byte payload between
// the two ranks of a DialProcTransport pair in this process, and
// returns each round trip's duration.
func pingPong(n int, tr *tracer) ([]float64, error) {
	lns, addrs, err := dinfomap.ListenRanks("tcp", 2, "")
	if err != nil {
		return nil, err
	}
	defer closeListeners(lns)
	epoch := time.Now()
	ts := make([]dinfomap.Transport, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer func() { done <- r }()
			t, err := dinfomap.DialProcTransport(dinfomap.ProcTransportConfig{
				Rank: r, Size: 2, Listener: lns[r], Addrs: addrs, Network: "tcp", Epoch: epoch,
			}, dinfomap.WithConnectTimeout(connectTimeout), dinfomap.WithRankTimeout(rankTimeout))
			if err != nil {
				errs[r] = err
				return
			}
			ts[r] = t
		}(r)
	}
	<-done
	<-done
	if err := errors.Join(errs...); err != nil {
		for _, t := range ts {
			if t != nil {
				t.Abort(err)
			}
		}
		return nil, err
	}

	const tag = 7
	payload := make([]byte, 64)
	rtts := make([]float64, n)
	s := tr.begin("transport.pingpong", -1, "")
	go func() {
		for i := 0; i < n; i++ {
			data, _, _ := ts[1].Recv(0, tag)
			ts[1].Send(0, tag, data)
		}
		ts[1].Finish()
		done <- 1
	}()
	for i := range rtts {
		t0 := time.Now()
		ts[0].Send(1, tag, payload)
		ts[0].Recv(1, tag)
		rtts[i] = float64(time.Since(t0).Nanoseconds())
	}
	ts[0].Finish()
	<-done
	tr.end(s)
	return rtts, nil
}
