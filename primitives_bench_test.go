package dinfomap_test

// The core primitive benches run the bodies cmd/dinfomap-bench gates,
// so `go test -bench` and the gated suite measure the same code.

import (
	"testing"

	"dinfomap/internal/benchsuite"
)

func BenchmarkSequentialInfomap(b *testing.B) { benchsuite.BenchSequentialInfomap(b) }

func BenchmarkDistributedInfomapP4(b *testing.B) { benchsuite.BenchDistributedInfomapP4(b) }

func BenchmarkDelegatePartitioning(b *testing.B) { benchsuite.BenchDelegatePartitioning(b) }
