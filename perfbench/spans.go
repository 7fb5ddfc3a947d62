package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; run-level
// spans (the sequential reference, the ping-pong) use Op -1. Parent is ""
// for a root span. Start and End are nanoseconds since the run epoch, a
// wall-clock instant every process of the run shares.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced ops pay only a nil check per call.
type tracer struct {
	epoch  time.Time
	prefix string // makes IDs unique across the run's processes
	next   int
	spans  []span
}

func newTracer(epoch time.Time, prefix string) *tracer {
	return &tracer{epoch: epoch, prefix: prefix}
}

// begin opens a span and returns its index for end; -1 on a nil tracer.
func (t *tracer) begin(name string, op int, parent string) int {
	if t == nil {
		return -1
	}
	t.next++
	t.spans = append(t.spans, span{
		Name: name, ID: fmt.Sprintf("%s%d", t.prefix, t.next), Parent: parent, Op: op,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// id returns span i's ID, "" on a nil tracer.
func (t *tracer) id(i int) string {
	if t == nil || i < 0 {
		return ""
	}
	return t.spans[i].ID
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// summarize totals each span name's duration and self time: a span's
// self time is its duration minus the union of its children's intervals
// clipped to it (children of one op may run in parallel, one per rank).
func summarize(spans []span) []spanStat {
	children := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.total += d
		st.self += d - covered(s, children[s.ID])
	}
	out := make([]spanStat, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi int64
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return time.Duration(sum)
}

func printSpanSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-22s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range summarize(spans) {
		fmt.Fprintf(w, "%-22s %6d %12.6f %12.6f\n", st.name, st.count, st.total.Seconds(), st.self.Seconds())
	}
}
