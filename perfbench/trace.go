package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"samplewh/internal/obs"
)

// span is one recorded interval. Times are nanoseconds since the recorder
// started; Parent 0 marks a root. Spans of one request share Req.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Req    string           `json:"req,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Values map[string]int64 `json:"values,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one span and returns its id (0 on a nil recorder).
func (r *recorder) add(name, req string, parent int64, start, end time.Time, values map[string]int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Values: values})
	return id
}

// addExplain grafts a server span tree (from ?explain=1) under parent; its
// root, the whole handler, is named server.handler. The server's clock
// origin is the trace start, which the client cannot see, so the tree is
// anchored at the client's send time; durations and relative offsets are the
// server's own.
func (r *recorder) addExplain(tree *obs.SpanSnapshot, req string, parent int64, anchor time.Time) {
	if r == nil || tree == nil {
		return
	}
	var walk func(s *obs.SpanSnapshot, name string, parent int64)
	walk = func(s *obs.SpanSnapshot, name string, parent int64) {
		start := anchor.Add(time.Duration(s.StartNS))
		id := r.add(name, req, parent, start, start.Add(time.Duration(s.DurationNS)), s.Values)
		for i := range s.Children {
			walk(&s.Children[i], "server."+s.Children[i].Name, id)
		}
	}
	walk(tree, "server.handler", parent)
}

// layerStat is one span name's totals.
type layerStat struct {
	Name   string
	Count  int64
	SelfNS int64
	WallNS int64
}

// selfTimes computes, per span name, the count, wall time and self time: a
// span's duration minus the part of its interval its children cover.
func (r *recorder) selfTimes() []layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	by := make(map[string]*layerStat)
	for _, s := range r.spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs := r.spans[c-1]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.WallNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(iv)
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	var start int64
	for _, x := range iv {
		if !started || x[0] > end {
			if started {
				total += end - start
			}
			start, end, started = x[0], x[1], true
			continue
		}
		end = max(end, x[1])
	}
	if started {
		total += end - start
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, stats []layerStat) {
	fmt.Fprintf(w, "%-32s %8s %12s %12s %10s\n", "span", "count", "self_ms", "wall_ms", "self_%")
	var total int64
	for _, st := range stats {
		total += st.SelfNS
	}
	for _, st := range stats {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.SelfNS) / float64(total)
		}
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f %9.1f%%\n", st.Name, st.Count,
			float64(st.SelfNS)/1e6, float64(st.WallNS)/1e6, pct)
	}
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
