package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
)

// dataset is the name every workload stores its partitions under.
const dataset = "data"

// bench is the state one workload run shares across its phases.
type bench struct {
	opts  options
	dir   string // the run's scratch directory
	nf    int64
	cache int64
	st    *stack
	// whDir is the store directory of the live stack.
	whDir string

	// rec is non-nil while spans are recorded (traced phases only); sh runs
	// the bench-side ingest pipeline beside every traced ingest.
	rec *recorder
	sh  *shadow

	mu        sync.Mutex
	reads     []readResult
	writes    []writeResult
	setupS    []float64
	setupIngs []writeResult
	problems  []string
}

// readOp is one estimate request and the reference check of its answer.
type readOp struct {
	bounded bool
	q       string
	opts    server.QueryOpts
	check   func(*server.EstimateResponse) error
}

// readResult is one completed read. The stage fields are filled from the
// answer's span tree in traced phases.
type readResult struct {
	op     readOp
	traced bool
	start  time.Time
	dur    time.Duration
	err    error
	resp   server.EstimateResponse
	stages stages
}

// writeResult is one ingest (values > 0) or roll-out (values == 0).
type writeResult struct {
	traced bool
	setup  int // which set-up ran it; -1 in the measured phase
	values int64
	start  time.Time
	dur    time.Duration
	err    error
}

// stages are the per-request stage times read from a ?explain=1 span tree.
type stages struct {
	admissionNS, topNS, loadNS, mergeNS, estimateNS int64
	pairs                                           int64
}

// problem records a failed check; the run then reports correct=false.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "check failed: "+msg)
		b.problems = append(b.problems, msg)
	} else {
		b.problems = append(b.problems, "")
	}
}

// newStack opens a fresh stack in a new store directory and creates the
// data set.
func (b *bench) newStack(ctx context.Context, k int) (time.Duration, error) {
	b.whDir = filepath.Join(b.dir, fmt.Sprintf("wh-%d", k))
	start := time.Now()
	st, err := openStack(b.whDir, b.cache)
	if err != nil {
		return 0, err
	}
	b.st = st
	if _, err := st.cl.CreateDataset(ctx, server.CreateDatasetRequest{Name: dataset, Algorithm: "HR", NF: b.nf}); err != nil {
		return 0, fmt.Errorf("create data set: %w", err)
	}
	return time.Since(start), nil
}

// closeStack shuts the live stack down.
func (b *bench) closeStack() error {
	if b.st == nil {
		return nil
	}
	err := b.st.close()
	b.st = nil
	return err
}

// body renders values as the ingest wire format: text, one per line.
func body(vals []int64) string {
	buf := make([]byte, 0, len(vals)*9)
	for _, v := range vals {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// ingest sends one partition through the server with an Idempotency-Key,
// checks the acknowledgement, and returns the exact record of the
// partition. In traced phases the bench-side ingest pipeline runs after it.
func (b *bench) ingest(ctx context.Context, id string, vals []int64) (*part, writeResult, error) {
	text := body(vals)
	key := fmt.Sprintf("perfbench-%d-%s", b.opts.seed, id)
	start := time.Now()
	resp, err := b.st.cl.IngestKeyed(ctx, dataset, id, 0, key, strings.NewReader(text))
	w := writeResult{traced: b.rec != nil, setup: -1, values: int64(len(vals)), start: start, dur: time.Since(start), err: err}
	b.rec.add("client.ingest", id, 0, start, start.Add(w.dur), map[string]int64{"values": w.values})
	if err != nil {
		return nil, w, fmt.Errorf("ingest %s: %w", id, err)
	}
	if resp.Read != int64(len(vals)) || resp.Sample.ParentSize != int64(len(vals)) {
		b.problem("ingest %s: read %d, parent size %d, want %d", id, resp.Read, resp.Sample.ParentSize, len(vals))
	}
	if resp.Sample.Size > b.nf || resp.Sample.Size < 1 {
		b.problem("ingest %s: sample size %d outside [1, nF=%d]", id, resp.Sample.Size, b.nf)
	}
	if b.sh != nil {
		if err := b.sh.ingest(id, key, vals); err != nil {
			return nil, w, err
		}
	}
	p := newPart(id, vals)
	p.sampleSize = resp.Sample.Size
	return p, w, nil
}

// rollOut removes a partition through the server.
func (b *bench) rollOut(ctx context.Context, id string) writeResult {
	start := time.Now()
	err := b.st.cl.RollOut(ctx, dataset, id)
	w := writeResult{traced: b.rec != nil, setup: -1, start: start, dur: time.Since(start), err: err}
	b.rec.add("client.rollout", id, 0, start, start.Add(w.dur), nil)
	return w
}

// read runs one estimate request. In traced phases it asks for the span
// tree, grafts it under a client span, and keeps the stage times.
func (b *bench) read(ctx context.Context, op readOp, req string) readResult {
	opts := op.opts
	rec := b.rec
	opts.Explain = rec != nil
	start := time.Now()
	resp, err := b.st.cl.Estimate(ctx, dataset, op.q, opts)
	r := readResult{op: op, traced: rec != nil, start: start, dur: time.Since(start), err: err}
	if err != nil {
		return r
	}
	if rec != nil {
		name := "client.query"
		if op.bounded {
			name = "client.bounded"
		}
		id := rec.add(name, req, 0, start, start.Add(r.dur), nil)
		rec.addExplain(resp.Trace, req, id, start)
		r.stages = stagesOf(resp.Trace)
		resp.Trace = nil
	}
	r.resp = resp
	return r
}

// stagesOf sums the stage spans of one answer's span tree.
func stagesOf(root *obs.SpanSnapshot) stages {
	var s stages
	if root == nil {
		return s
	}
	for _, c := range root.Children {
		s.topNS += c.DurationNS
		if c.Name == "admission_wait" {
			s.admissionNS += c.DurationNS
		}
	}
	var walk func(sp *obs.SpanSnapshot)
	walk = func(sp *obs.SpanSnapshot) {
		switch sp.Name {
		case "load":
			s.loadNS += sp.DurationNS
		case "merge":
			s.mergeNS += sp.DurationNS
		case "estimate":
			s.estimateNS += sp.DurationNS
		case "merge_level":
			s.pairs += sp.Values["pairs"]
		}
		for i := range sp.Children {
			walk(&sp.Children[i])
		}
	}
	for i := range root.Children {
		walk(&root.Children[i])
	}
	return s
}

// record keeps completed operations for the metrics and the checks.
func (b *bench) record(r *readResult, w *writeResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r != nil {
		b.reads = append(b.reads, *r)
	}
	if w != nil {
		b.writes = append(b.writes, *w)
	}
}

// checkReads runs every recorded answer's reference check and counts the
// failed requests.
func (b *bench) checkReads() (failed int64) {
	for i := range b.reads {
		r := &b.reads[i]
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "request failed: %s: %v\n", r.op.q, r.err)
			continue
		}
		if err := r.op.check(&r.resp); err != nil {
			b.problem("%s: %v", r.op.q, err)
		}
	}
	for _, w := range b.writes {
		if w.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "request failed: write: %v\n", w.err)
		}
	}
	return failed
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// sample is one operation's start time and latency in milliseconds.
type sample struct {
	at time.Time
	ms float64
}

// readSamples returns the selected reads.
func (b *bench) readSamples(traced, bounded bool) []sample {
	var out []sample
	for _, r := range b.reads {
		if r.err == nil && r.traced == traced && r.op.bounded == bounded {
			out = append(out, sample{r.start, float64(r.dur.Nanoseconds()) / 1e6})
		}
	}
	return out
}

// nSlices is how many equal time slices a measured phase is cut into. The
// median latency is computed per slice and the median across slices is
// reported, so a burst of noise from outside the program that spoils one or
// two slices does not move the figure.
const nSlices = 5

// sliceMedian is the median over the time slices of the phase [start,
// start+elapsed) of each slice's median latency.
func sliceMedian(ss []sample, start time.Time, elapsed time.Duration) float64 {
	width := elapsed / nSlices
	var groups [nSlices][]float64
	for _, s := range ss {
		k := sliceOf(s.at, start, width)
		groups[k] = append(groups[k], s.ms)
	}
	var vals []float64
	for _, g := range groups {
		if len(g) > 0 { // a slice can be empty only if one request outlasts it
			vals = append(vals, quantile(g, 0.5))
		}
	}
	return quantile(vals, 0.5)
}

// sliceOf is the slice index of time t.
func sliceOf(t, start time.Time, width time.Duration) int {
	return max(min(int(t.Sub(start)/width), nSlices-1), 0)
}

// ingestMedian groups writes by key and returns the median over the groups
// of each group's median ingest latency.
func ingestMedian(ws []writeResult, key func(writeResult) int) float64 {
	groups := make(map[int][]float64)
	for _, w := range ws {
		if w.values > 0 {
			groups[key(w)] = append(groups[key(w)], float64(w.dur.Nanoseconds())/1e6)
		}
	}
	var p50s []float64
	for _, g := range groups {
		p50s = append(p50s, quantile(g, 0.5))
	}
	return quantile(p50s, 0.5)
}

// cpuSteal reads the machine's cumulative stolen and total CPU ticks from
// /proc/stat (zeros where it cannot be read): time the hypervisor gave this
// machine's CPUs to others, which slows every figure of a run.
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
