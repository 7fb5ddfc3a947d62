package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
0 1
1 2
% also a comment

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2.5\n1 2 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0, 1); w != 2.5 {
		t.Fatalf("EdgeWeight(0,1) = %v, want 2.5", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"one field":       "0\n",
		"bad source":      "x 1\n",
		"bad target":      "0 y\n",
		"negative vertex": "-1 2\n",
		"bad weight":      "0 1 w\n",
		"zero weight":     "0 1 0\n",
		"negative weight": "0 1 -3\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
				t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
			}
		})
	}
}

// Non-finite weights parse as floats but are not valid edge weights;
// ReadEdgeList must reject them with the offending line number instead
// of letting Builder.AddWeightedEdge panic.
func TestReadEdgeListNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"NaN", "+Inf", "-Inf"} {
		t.Run(w, func(t *testing.T) {
			in := "0 1\n1 2 " + w + "\n"
			_, err := ReadEdgeList(strings.NewReader(in))
			if err == nil {
				t.Fatalf("ReadEdgeList(%q) succeeded, want error", in)
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("error %q does not name line 2", err)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("edge list round trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 2, 3) // self-loop
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all, sorry"))); err == nil {
		t.Fatal("ReadBinary accepted garbage")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadBinary accepted empty input")
	}
}

// binaryOf returns the WriteBinary encoding of a 4-vertex path with
// its header words and offset table decoded for tampering: words[0:3]
// are magic, n and arcs, words[3:3+n+1] the offsets.
func binaryOf(t *testing.T) []uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})); err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, buf.Len()/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf.Bytes()[8*i:])
	}
	return words
}

func encodeWords(words []uint64) []byte {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// A corrupt offset table used to index past the arc array in the
// edge-count loop, which runs before Validate; it must be an error.
func TestReadBinaryRejectsBadOffsets(t *testing.T) {
	const off = 3 // first offset word
	cases := map[string]func(w []uint64){
		"non-monotone":      func(w []uint64) { w[off+1], w[off+2] = w[off+2], w[off+1] },
		"interior past end": func(w []uint64) { w[off+2] = 1000 },
		"end past arcs":     func(w []uint64) { w[off+4] = w[2] + 4 },
		"end short of arcs": func(w []uint64) { w[off+4] = w[2] - 1 },
		"nonzero start":     func(w []uint64) { w[off] = 1 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			words := binaryOf(t)
			if _, err := ReadBinary(bytes.NewReader(encodeWords(words))); err != nil {
				t.Fatalf("untampered input rejected: %v", err)
			}
			corrupt(words)
			if _, err := ReadBinary(bytes.NewReader(encodeWords(words))); err == nil {
				t.Fatal("ReadBinary accepted a corrupt offset table")
			}
		})
	}
}

// A bare 24-byte header claiming huge sizes must fail at end of input,
// not allocate the claimed arrays (2^40 offsets would be 8 TiB).
func TestReadBinaryOversizedHeader(t *testing.T) {
	for _, hdr := range [][3]uint64{
		{binMagic, 1 << 40, 0},
		{binMagic, 3, 1 << 40},
		{binMagic, math.MaxUint64, 0},
		{binMagic, 0, math.MaxUint64},
	} {
		if _, err := ReadBinary(bytes.NewReader(encodeWords(hdr[:]))); err == nil {
			t.Errorf("header %v: ReadBinary succeeded, want error", hdr[1:])
		}
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumVertices(); u++ {
		ta, wa := a.NeighborSlice(u)
		tb, wb := b.NeighborSlice(u)
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
			var x, y float64 = 1, 1
			if wa != nil {
				x = wa[i]
			}
			if wb != nil {
				y = wb[i]
			}
			if x != y {
				return false
			}
		}
	}
	return true
}

// Property: text and binary round trips are lossless for random graphs.
func TestPropertyIORoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 50)
		var tb, bb bytes.Buffer
		if WriteEdgeList(&tb, g) != nil || WriteBinary(&bb, g) != nil {
			return false
		}
		g1, err1 := ReadEdgeList(&tb)
		g2, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && graphsEqual(g, g1) && graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListPreservesIsolatedVertices(t *testing.T) {
	// Vertex 4 is isolated; the "# vertices=" header must carry it
	// through the text round trip.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 5 {
		t.Fatalf("round trip lost isolated vertices: n=%d, want 5", g2.NumVertices())
	}
}
