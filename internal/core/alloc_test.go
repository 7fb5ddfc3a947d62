package core

// Allocation budgets for the hot paths the dense-index rewrite and the
// pooled message buffers pay for: a steady-state sweep pass and a
// Module_Info wire round must not allocate at all. These are the same
// paths cmd/dinfomap-bench gates on allocs/op; asserting zero here
// keeps the budget enforced by plain `go test` too, with no baseline
// file in the loop.

import (
	"testing"

	"dinfomap/internal/gen"
	"dinfomap/internal/mpi"
	"dinfomap/internal/obs"
)

// TestSweepPassAllocFree converges a single-rank level, then asserts
// that further FindBestModule passes — full scans that evaluate every
// vertex's best target but apply no moves — run without allocating.
func TestSweepPassAllocFree(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 600, NumComms: 12, AvgDegree: 8, Mixing: 0.2,
	})
	h := NewBenchLevel(g, 7)
	for h.SweepPass() > 0 {
	}
	if avg := testing.AllocsPerRun(50, func() { h.SweepPass() }); avg != 0 {
		t.Fatalf("steady-state sweep pass: %v allocs/op, want 0", avg)
	}
}

// TestCodecRoundAllocFree asserts a full Module_Info encode/decode
// round (mixed long and short forms) through a warm encoder and a
// reused decoder allocates nothing.
func TestCodecRoundAllocFree(t *testing.T) {
	recs := make([]ModuleInfo, 512)
	for i := range recs {
		recs[i] = ModuleInfo{
			ModID:      i * 7,
			SumPr:      float64(i) * 1e-4,
			ExitPr:     float64(i) * 1e-5,
			NumMembers: i%97 + 1,
			IsSent:     i%3 == 0,
		}
	}
	e := mpi.NewEncoder(1 << 10)
	d := mpi.NewDecoder(nil)
	// One warm-up round grows the encoder to its steady capacity.
	if got := BenchCodecRound(e, d, recs); got != len(recs) {
		t.Fatalf("warm-up decoded %d records, want %d", got, len(recs))
	}
	avg := testing.AllocsPerRun(100, func() {
		if got := BenchCodecRound(e, d, recs); got != len(recs) {
			t.Errorf("decoded %d records, want %d", got, len(recs))
		}
	})
	if avg != 0 {
		t.Fatalf("Module_Info codec round: %v allocs/op, want 0", avg)
	}
}

// TestPhaseSpanAllocFree asserts that a phase span — stats snapshot,
// one diff, the cost booking into an existing phase key — allocates
// nothing. The level journals nowhere, so Emit is a no-op here.
func TestPhaseSpanAllocFree(t *testing.T) {
	g, _ := gen.PlantedPartition(5, gen.PlantedConfig{
		N: 200, NumComms: 4, AvgDegree: 8, Mixing: 0.2,
	})
	h := NewBenchLevel(g, 7)
	avg := testing.AllocsPerRun(100, func() {
		sp := h.lv.openSpan(obs.PhaseRefreshRound1)
		h.lv.closeSpan(sp, h.costs, obs.Event{Ops: 1})
	})
	if avg != 0 {
		t.Fatalf("phase span: %v allocs/op, want 0", avg)
	}
}
