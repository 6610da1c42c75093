package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"samplewh/internal/obs"
)

// tracedPhases runs the measured phase of a traced run in two halves over
// the same stack. The first half is untraced and gives the reference
// end-to-end numbers plus the counters tracing would disturb (allocations,
// response bytes, cache hits). The second half records spans: reads ask for
// the server's span tree, ingests run the bench-side layer pipeline, and the
// storage decorator times every get, put and catalog write. The difference
// between the halves' end-to-end numbers is the tracing overhead.
func (b *bench) tracedPhases(ctx context.Context, w traffic, rec *recorder, sh *shadow) (map[string]metric, error) {
	half := time.Duration(b.opts.seconds) * time.Second / 2

	before, err := b.st.metrics(ctx)
	if err != nil {
		return nil, err
	}
	alloc0, resp0 := allocBytes(), b.st.respBytes.Load()
	startA := time.Now()
	w.phase(ctx, b, startA.Add(half))
	elapsedA := time.Since(startA)
	alloc1, resp1 := allocBytes(), b.st.respBytes.Load()
	after, err := b.st.metrics(ctx)
	if err != nil {
		return nil, err
	}
	untraced, err := b.endToEnd(w, startA, elapsedA, false)
	if err != nil {
		return nil, err
	}
	readsA := float64(len(b.readSamples(false, false)) + len(b.readSamples(false, true)))

	walBytes0 := counter(after, "wal.bytes")
	b.rec, b.sh = rec, sh
	b.st.store.enable(rec)
	startB := time.Now()
	w.phase(ctx, b, startB.Add(time.Duration(b.opts.seconds)*time.Second-half))
	elapsedB := time.Since(startB)
	b.st.store.disable()
	b.rec, b.sh = nil, nil
	afterB, err := b.st.metrics(ctx)
	if err != nil {
		return nil, err
	}
	traced, err := b.endToEnd(w, startB, elapsedB, true)
	if err != nil {
		return nil, err
	}

	for _, name := range []string{"query_p50_ms", "bounded_p50_ms"} {
		u, t := untraced[name].Value, traced[name].Value
		fmt.Printf("trace overhead %-16s untraced %10.3f  traced %10.3f  (%+.1f%%)\n", name, u, t, 100*(t-u)/u)
	}
	printSelfTimes(os.Stdout, rec.selfTimes())
	if err := rec.write(b.opts.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", b.opts.spans)

	// Reads of the traced half, with their stage times.
	var reads, main, bounded []readResult
	for _, r := range b.reads {
		if r.traced && r.err == nil {
			reads = append(reads, r)
			if r.op.bounded {
				bounded = append(bounded, r)
			} else {
				main = append(main, r)
			}
		}
	}
	perRead := func(f func(r readResult) float64, rs []readResult) float64 {
		if len(rs) == 0 {
			return 0
		}
		var s float64
		for _, r := range rs {
			s += f(r)
		}
		return s / float64(len(rs))
	}
	var self []float64
	for _, r := range main {
		self = append(self, float64(r.dur.Nanoseconds()-r.stages.topNS)/1e6)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits := counter(after, "samplecache.hits") - counter(before, "samplecache.hits")
	misses := counter(after, "samplecache.misses") - counter(before, "samplecache.misses")
	gets, puts, blobs := b.st.store.snapshot()
	nReads := float64(len(reads))
	var ingestValues int64
	for _, wr := range append(b.setupIngs, b.writes...) {
		if wr.traced && wr.err == nil {
			ingestValues += wr.values
		}
	}
	// The set-up ran traced before the first /metricsz read, so the journal
	// counter covers the set-up ingests plus the traced half's.
	walBytes := counter(afterB, "wal.bytes") - walBytes0 + counter(before, "wal.bytes")

	m := map[string]metric{
		"server.admission_wait_ms":         {perRead(func(r readResult) float64 { return ms(r.stages.admissionNS) }, reads), "ms"},
		"server.self_ms":                   {quantile(self, 0.5), "ms"},
		"server.response_bytes":            {div(float64(resp1-resp0), readsA), "B"},
		"samplecache.hit_ratio":            {div(float64(hits), float64(hits+misses)), "ratio"},
		"warehouse.load_ms":                {perRead(func(r readResult) float64 { return ms(r.stages.loadNS) }, main), "ms"},
		"alloc_bytes_per_query":            {div(float64(alloc1-alloc0), readsA), "B"},
		"storage.gets_per_query":           {div(float64(gets.n), nReads), "count"},
		"storage.read_bytes_per_query":     {div(float64(gets.bytes), nReads), "B"},
		"storage.get_ms":                   {div(ms(gets.ns), float64(gets.n)), "ms"},
		"storage.put_ms":                   {div(ms(puts.ns), float64(puts.n)), "ms"},
		"storage.write_bytes_per_rollin":   {div(float64(puts.bytes+blobs.bytes), float64(puts.n)), "B"},
		"core.merge_ms":                    {perRead(func(r readResult) float64 { return ms(r.stages.mergeNS) }, main), "ms"},
		"core.merges_per_query":            {perRead(mergesOf, reads), "count"},
		"sampler.feed_ns_per_value":        {div(float64(sh.feedNS), float64(sh.values)), "ns"},
		"sampler.finalize_ms":              {div(ms(sh.finalizeNS), float64(sh.ingests)), "ms"},
		"estimate.ms":                      {perRead(func(r readResult) float64 { return ms(r.stages.estimateNS) }, main), "ms"},
		"plan.partitions_loaded_per_query": {perRead(func(r readResult) float64 { return float64(r.resp.Plan.Loaded) }, bounded), "count"},
		"sketch.pruned_per_query":          {perRead(func(r readResult) float64 { return float64(len(r.resp.Coverage.SketchPruned)) }, reads), "count"},
		"sketch.build_ms":                  {div(ms(sh.sketchNS), float64(sh.ingests)), "ms"},
		"wal.append_ms":                    {div(ms(sh.appendNS), float64(sh.ingests)), "ms"},
		"wal.seal_ms":                      {div(ms(sh.sealNS), float64(sh.ingests)), "ms"},
		"wal.bytes_per_value":              {div(float64(walBytes), float64(ingestValues)), "B"},
		"warehouse.rollin_ms":              {div(ms(sh.rollinNS), float64(sh.ingests)), "ms"},
		"warehouse.rollout_ms":             {div(ms(sh.rolloutNS), float64(sh.ingests)), "ms"},
		"catalog.write_ms":                 {div(ms(blobs.ns), float64(blobs.n)), "ms"},
		"catalog.bytes_per_write":          {div(float64(blobs.bytes), float64(blobs.n)), "B"},
	}
	return m, nil
}

// mergesOf counts one read's pairwise merges: the tree merge reports its
// pairs per level; the planner's incremental executor folds each loaded
// partition after the first into the running sample.
func mergesOf(r readResult) float64 {
	if r.resp.Plan != nil {
		return float64(max(len(r.resp.Coverage.Merged)-1, 0))
	}
	return float64(r.stages.pairs)
}

// counter reads one counter from a /metricsz snapshot.
func counter(s obs.Snapshot, name string) int64 { return s.Counters[name] }
