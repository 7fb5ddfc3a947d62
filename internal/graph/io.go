package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list: one edge per line
// as "u v" or "u v w". Lines beginning with '#' or '%' are comments.
// Vertex IDs must be non-negative integers; the vertex count is
// 1 + the maximum ID seen, or the value of a "# vertices=N ..." header
// comment (which WriteEdgeList emits) when that is larger — without it,
// trailing isolated vertices would be lost in the round trip. Parallel
// edges are merged (weights summed).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	declaredN := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			for _, field := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(field, "vertices="); ok {
					if n, err := strconv.Atoi(v); err == nil && n > declaredN {
						declaredN = n
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %q", lineno, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineno, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineno, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineno)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineno, fields[2], err)
			}
			if w <= 0 {
				return nil, fmt.Errorf("graph: line %d: non-positive weight %v", lineno, w)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: non-finite weight %v", lineno, w)
			}
		}
		b.AddWeightedEdge(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	if declaredN > 0 {
		b.EnsureVertices(declaredN)
	}
	return b.Build(), nil
}

// WriteEdgeList writes g as a text edge list (one "u v" or "u v w" line
// per undirected edge, u <= v). Weights are omitted when all are 1.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.Edges(func(u, v int, wt float64) {
		if err != nil {
			return
		}
		if g.weights == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

const binMagic = uint64(0x44494d4150_0001) // "DIMAP" + version

// WriteBinary writes g in a compact little-endian binary format
// (magic, n, arc count, offsets, targets, weight flag, weights).
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binMagic, uint64(g.NumVertices()), uint64(len(g.targets))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	off32 := make([]uint64, len(g.offsets))
	for i, o := range g.offsets {
		off32[i] = uint64(o)
	}
	if err := binary.Write(bw, binary.LittleEndian, off32); err != nil {
		return err
	}
	t64 := make([]uint64, len(g.targets))
	for i, t := range g.targets {
		t64[i] = uint64(t)
	}
	if err := binary.Write(bw, binary.LittleEndian, t64); err != nil {
		return err
	}
	weighted := uint64(0)
	if g.weights != nil {
		weighted = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, weighted); err != nil {
		return err
	}
	if g.weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary. Malformed input
// returns an error: the offset table must start at 0, never decrease,
// and end at the arc count before any arc is read through it, and the
// arrays grow only as their bytes arrive, so a header that overstates
// its sizes fails at end of input instead of allocating them up front.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, n, arcs uint64
	for _, p := range []*uint64{&magic, &n, &arcs} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: binary header: %v", err)
		}
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if n >= math.MaxInt || arcs > math.MaxInt {
		return nil, fmt.Errorf("graph: header sizes out of range: %d vertices, %d arcs", n, arcs)
	}
	off, err := readU64s(br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: offsets: %v", err)
	}
	if off[0] != 0 || off[n] != arcs {
		return nil, fmt.Errorf("graph: offsets span [%d, %d], want [0, %d]", off[0], off[n], arcs)
	}
	for u := uint64(0); u < n; u++ {
		if off[u] > off[u+1] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d", u)
		}
	}
	t64, err := readU64s(br, arcs)
	if err != nil {
		return nil, fmt.Errorf("graph: targets: %v", err)
	}
	var weighted uint64
	if err := binary.Read(br, binary.LittleEndian, &weighted); err != nil {
		return nil, fmt.Errorf("graph: weight flag: %v", err)
	}
	g := &Graph{
		offsets: make([]int, n+1),
		targets: make([]int, arcs),
	}
	for i, o := range off {
		g.offsets[i] = int(o)
	}
	for i, t := range t64 {
		g.targets[i] = int(t)
	}
	if weighted == 1 {
		w64, err := readU64s(br, arcs)
		if err != nil {
			return nil, fmt.Errorf("graph: weights: %v", err)
		}
		g.weights = make([]float64, arcs)
		for i, w := range w64 {
			g.weights[i] = math.Float64frombits(w)
		}
	}
	// Recompute derived counters.
	for u := 0; u < int(n); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if v := g.targets[i]; u <= v {
				g.numEdges++
				g.totalWeight += g.arcWeight(i)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %v", err)
	}
	return g, nil
}

// readU64s reads count little-endian uint64 values. The result grows as
// bytes arrive, so memory stays proportional to the input actually read
// whatever count claims.
func readU64s(r io.Reader, count uint64) ([]uint64, error) {
	var buf [8 << 10]byte
	var out []uint64
	for count > 0 {
		k := uint64(len(buf) / 8)
		if count < k {
			k = count
		}
		b := buf[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(b[i:]))
		}
		count -= k
	}
	return out, nil
}
