package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary serve as small-proc's rank program.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "rank" {
		if err := rankMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench rank:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFirstOpRepeatsExactly runs each workload's first op twice with
// the same seed: the output checks must pass, and the partition, the
// codelength and every deterministic counter (delta-L evaluations,
// sweeps, collectives, bytes by kind, frames) must be identical, so
// that a change can cite them as exact counts.
func TestFirstOpRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full web graph")
	}
	const seed = 1
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	webG, _, err := webGraph(graphSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	webPath := filepath.Join(dir, "web.txt")
	if _, err := writeGraph(webPath, webG); err != nil {
		t.Fatal(err)
	}
	smallG, _, err := smallGraph(graphSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	smallPath := filepath.Join(dir, "small.txt")
	if _, err := writeGraph(smallPath, smallG); err != nil {
		t.Fatal(err)
	}

	ops := map[string]func() (*outcome, error){
		"web-goroutine": func() (*outcome, error) {
			_, o, g, err := webOp(webPath, seed, nil, 0)
			if err != nil {
				return nil, err
			}
			_, err = check(g, o, nil, 0)
			return o, err
		},
		"small-proc": func() (*outcome, error) {
			_, res, _, err := procOp(exe, dir, smallPath, 0, seed, time.Now(), nil, 0)
			if err != nil {
				return nil, err
			}
			var rec opRecord
			o := distributedOutcome(smallG, seed, res, &rec)
			_, err = check(smallG, o, nil, 0)
			return o, err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			a, err := op()
			if err != nil {
				t.Fatal(err)
			}
			b, err := op()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(a, b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("counters differ between two runs of the same op:\n%+v\n%+v", *a, *b)
			}
			if a.Collectives == 0 {
				t.Fatal("distributed op reported no collectives")
			}
			if name == "small-proc" && a.Frames == 0 {
				t.Fatal("proc op reported no transport frames")
			}
		})
	}
}

func TestPingPong(t *testing.T) {
	rtts, err := pingPong(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 50 || median(rtts) <= 0 {
		t.Fatalf("got %d round trips, median %v ns", len(rtts), median(rtts))
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: "1", Start: 0, End: 100},
		{Name: "rank", ID: "2", Parent: "1", Start: 10, End: 60},
		{Name: "rank", ID: "3", Parent: "1", Start: 40, End: 90},
	}
	got := map[string]spanStat{}
	for _, st := range summarize(spans) {
		got[st.name] = st
	}
	if op := got["op"]; op.total != 100 || op.self != 20 {
		t.Errorf("op: total %v self %v, want 100 and 20", op.total, op.self)
	}
	if r := got["rank"]; r.count != 2 || r.self != 100 {
		t.Errorf("rank: count %d self %v, want 2 and 100", r.count, r.self)
	}
}
