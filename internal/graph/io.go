package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MaxVertices caps the vertex count an edge list may imply, through a
// vertex id or a "# vertices=N" header: 2^27 = 134,217,728. That admits
// every graph of the paper at full size (the largest, webbase-2001, has
// 118M vertices) and stays inside the int32 range the clustering core
// indexes vertices with. Reading allocates about 80 bytes per vertex, so
// the cap also bounds what a one-line file naming a huge id can make
// the reader allocate (about 10 GB, the size a full-scale paper graph
// needs anyway) where an unbounded id runs the process out of memory.
const MaxVertices = 1 << 27

// ReadEdgeList parses a whitespace-separated edge list: one edge per line
// as "u v" or "u v w". Lines beginning with '#' or '%' are comments.
// Vertex IDs must be integers in [0, MaxVertices); the vertex count is
// 1 + the maximum ID seen, or the value of a "# vertices=N ..." header
// comment (which WriteEdgeList emits) when that is larger — without it,
// trailing isolated vertices would be lost in the round trip. A header
// declaring more than MaxVertices is an error. Parallel edges are merged
// (weights summed); merged weights must keep the total weight finite.
func ReadEdgeList(r io.Reader) (*Graph, error) { return readEdgeList(r, MaxVertices) }

// readEdgeList is ReadEdgeList with the vertex cap as a parameter.
func readEdgeList(r io.Reader, maxVertices int) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	declaredN := 0
	var fields [3][]byte
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		nf, ascii := asciiFields(raw, &fields)
		if !ascii || nf == 0 || fields[0][0] == '#' || fields[0][0] == '%' {
			// Comments, blank lines and lines with a non-ASCII byte take
			// the string path, which splits at Unicode spaces.
			line := strings.TrimSpace(string(raw))
			if line == "" || line[0] == '#' || line[0] == '%' {
				for _, field := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(field, "vertices="); ok {
						n, err := strconv.Atoi(v)
						if err != nil || n <= declaredN {
							continue
						}
						if n > maxVertices {
							return nil, fmt.Errorf("graph: line %d: declared %d vertices, more than the cap of %d", lineno, n, maxVertices)
						}
						declaredN = n
					}
				}
				continue
			}
			nf = 0
			for _, field := range strings.Fields(line) {
				if nf < len(fields) {
					fields[nf] = []byte(field)
				}
				nf++
			}
		}
		if nf < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %q", lineno, strings.TrimSpace(string(raw)))
		}
		u, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineno, fields[0], err)
		}
		v, err := strconv.Atoi(string(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineno, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineno)
		}
		if u >= maxVertices || v >= maxVertices {
			return nil, fmt.Errorf("graph: line %d: vertex id %d out of range [0, %d)", lineno, max(u, v), maxVertices)
		}
		w := 1.0
		if nf >= 3 {
			w, err = strconv.ParseFloat(string(fields[2]), 64)
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
	g := b.Build()
	if math.IsInf(g.TotalWeight(), 0) {
		return nil, fmt.Errorf("graph: total edge weight overflows")
	}
	return g, nil
}

// asciiFields splits line at ASCII whitespace, as strings.Fields does,
// storing the first len(f) fields in f without allocating, and returns
// the number of fields. ascii is false, and nothing is split, when line
// holds a byte >= 0x80: there only strings.Fields knows the spaces.
func asciiFields(line []byte, f *[3][]byte) (n int, ascii bool) {
	start := -1
	for i, c := range line {
		if c >= utf8.RuneSelf {
			return 0, false
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			if start >= 0 {
				if n < len(f) {
					f[n] = line[start:i]
				}
				n++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n, true
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
