// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time in a closed loop (one op at a time, one
// client), checks every op's output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics. See README.md.
//
// It drives the program only through the root dinfomap package. The
// same binary also serves as web-goroutine's op process (role "worker")
// and as the rank program of small-proc (role "rank"); the role is
// chosen by the PERFBENCH_ROLE environment variable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dinfomap"
)

const roleEnv = "PERFBENCH_ROLE"

func main() {
	var err error
	switch os.Getenv(roleEnv) {
	case "rank":
		err = rankMain(os.Args[1:])
	case "worker":
		err = workerMain(os.Args[1:])
	default:
		os.Exit(harnessMain(os.Args[1:], os.Stdout))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one input set and op kind; BENCHMARK.json and README.md
// say why each was chosen.
type workload struct {
	name string
	// tailQ is the run_s.tail quantile, and minOps the op floor of a run
	// that keeps at least 10 ops beyond it.
	tailQ  float64
	minOps int
	run    func(h *harness) (*runData, error)
}

var workloads = []workload{
	{name: "web-goroutine", tailQ: 0.5, minOps: 20, run: (*harness).runWeb},
	{name: "small-proc", tailQ: 0.9, minOps: 100, run: (*harness).runSmallProc},
}

// runData is everything a run measured. web-goroutine receives it from
// its worker process as JSON; small-proc fills it in the harness.
type runData struct {
	Ops []opRecord `json:"ops"`
	// First is graph 0's first successful untraced op, FirstTraced its
	// first traced op (for the journal counters).
	First       *outcome `json:"first"`
	FirstTraced *outcome `json:"first_traced,omitempty"`
	// SeqEvals and SeqNs are the traced run's reference RunSequential
	// on graph 0: its delta-L evaluations and wall time.
	SeqEvals  int64     `json:"seq_evals,omitempty"`
	SeqNs     int64     `json:"seq_ns,omitempty"`
	PeakRSSKB int64     `json:"peak_rss_kb,omitempty"`
	Spans     []span    `json:"spans,omitempty"`
	RTTNs     []float64 `json:"-"`
	// Refs holds each graph's first successful op outcome; every later
	// op on the graph must match it.
	Refs []*outcome `json:"refs"`
}

type harness struct {
	wl      workload
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // this run's scratch directory
	exe     string
	epoch   time.Time
	prov    provenance
	// truths[i] is graph i's planted community of each vertex.
	truths [][]int
}

// provenance is recorded with every result.
type provenance struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Trace         bool    `json:"trace"`
	RunSeconds    float64 `json:"run_seconds"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision"`
	Ops           int     `json:"ops"`
	Graphs        int     `json:"graphs"`
	Vertices      []int   `json:"vertices"`
	Edges         []int   `json:"edges"`
	EdgeListBytes []int64 `json:"edge_list_bytes"`
}

func harnessMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "web-goroutine or small-proc")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	outDir := fs.String("out-dir", ".bench_build", "directory for scratch inputs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	h := &harness{
		wl: *wl, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     dir, exe: exe, epoch: time.Now(),
	}
	h.prov = provenance{
		Workload: wl.name, Seed: *seed, Trace: h.trace, RunSeconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: revision(),
	}

	rd, err := wl.run(h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		fmt.Fprintln(stdout, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return 1
	}
	h.prov.Ops = len(rd.Ops)
	failed := 0
	for _, op := range rd.Ops {
		if op.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: op on graph %d failed: %s\n", op.Graph, op.Err)
		}
	}

	var ms []metric
	if h.trace {
		ms = h.perLayer(rd)
	} else {
		ms = h.endToEnd(rd)
	}
	correct := failed == 0 && rd.First != nil
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
		}
	}

	pj, _ := json.Marshal(h.prov) // plain data: Marshal cannot fail
	fmt.Fprintf(stdout, "# provenance %s\n", pj)
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v: %d ops, %d failed\n", wl.name, h.seed, h.trace, len(rd.Ops), failed)
	if h.trace {
		spanPath, err := h.writeSpans(*outDir, rd.Spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			correct = false
		} else {
			fmt.Fprintf(stdout, "# spans written to %s\n", spanPath)
		}
		printSpanSummary(stdout, rd.Spans)
	}
	fmt.Fprintf(stdout, "%-34s %18s %s\n", "metric", "value", "unit")
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-34s %18.6g %s\n", m.name, m.value, m.unit)
	}
	if !h.trace {
		fmt.Fprintf(stdout, "%-34s %18.6g %s\n", "failed_frac", float64(failed)/float64(max(1, len(rd.Ops))), "ratio")
	}

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(1, len(rd.Ops)), failed, make(map[string]metricValue, len(ms))}
	if len(rd.Ops) == 0 {
		out.Failed = 1
	}
	for _, m := range ms {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// revision names the source the binary was built from: the run script
// passes the git revision when the tree is a git checkout.
func revision() string {
	if r := os.Getenv("PERFBENCH_REVISION"); r != "" {
		return r
	}
	return "unknown"
}

func (h *harness) writeSpans(outDir string, spans []span) (string, error) {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", h.wl.name, h.seed))
	return path, writeJSON(path, struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{h.prov, spans})
}

// addGraph writes g as an edge-list file in the run directory and
// records its size in the provenance.
func (h *harness) addGraph(g *dinfomap.Graph, name string) (string, error) {
	path := filepath.Join(h.dir, name)
	n, err := writeGraph(path, g)
	if err != nil {
		return "", err
	}
	h.prov.Graphs++
	h.prov.Vertices = append(h.prov.Vertices, g.NumVertices())
	h.prov.Edges = append(h.prov.Edges, g.NumEdges())
	h.prov.EdgeListBytes = append(h.prov.EdgeListBytes, n)
	return path, nil
}
