package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// traffic is one workload: a traffic mix over one data shape. A fresh value
// is made for every set-up, so each set-up ingests the same seeded inputs.
type traffic interface {
	// setup ingests the initial partitions through the server.
	setup(ctx context.Context, b *bench) error
	// warm runs untimed requests so caches fill before timing.
	warm(ctx context.Context, b *bench) error
	// phase runs the closed-loop clients until the deadline.
	phase(ctx context.Context, b *bench, deadline time.Time)
	// finish runs the end-of-run checks that need the whole run.
	finish(ctx context.Context, b *bench) error
	// held is the number of partitions the data set holds.
	held() int
}

// workloadDef is a named workload and its fixed settings.
type workloadDef struct {
	nf         int64
	cacheBytes int64
	// setups is how many times an untraced run builds its warehouse;
	// setup_s is their median.
	setups int
	make   func(seed uint64) traffic
}

// swdCacheBytes is swd's default decoded-sample cache budget.
const swdCacheBytes = 64 << 20

var workloads = map[string]workloadDef{
	"merge-warm": {
		nf:         mwNF,
		cacheBytes: swdCacheBytes,
		// Its set-ups are short, so eight of them give setup_s and the
		// printed ingest median more samples.
		setups: 8,
		make:   func(seed uint64) traffic { return newMergeWarm(seed) },
	},
	"range-cold": {
		nf:         rcNF,
		cacheBytes: 0,
		setups:     4,
		make:       func(seed uint64) traffic { return newRangeCold(seed) },
	},
	"rollin-window": {
		nf:         rwNF,
		cacheBytes: swdCacheBytes,
		setups:     3,
		make:       func(seed uint64) traffic { return newRollinWindow(seed) },
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// run executes the workload: set-ups, warm-up, the measured phase (two
// halves, untraced then traced, in a traced run), the checks and the
// metrics.
func (d workloadDef) run(opts options, dir string) (*result, error) {
	ctx := context.Background()
	b := &bench{opts: opts, dir: dir, nf: d.nf, cache: d.cacheBytes}
	defer b.closeStack()
	var rec *recorder
	n := d.setups
	if opts.trace {
		rec = newRecorder()
		b.rec = rec
		n = 1
	}
	var w traffic
	for k := 0; k < n; k++ {
		w = d.make(opts.seed)
		openDur, err := b.newStack(ctx, k)
		if err != nil {
			return nil, err
		}
		if opts.trace { // a traced run builds once, so this runs once
			b.st.store.enable(rec)
			b.sh, err = newShadow(b.st.wh, filepath.Join(dir, "shadow-wal"), d.nf, rec)
			if err != nil {
				return nil, err
			}
			defer b.sh.close()
		}
		before := len(b.setupIngs)
		if err := w.setup(ctx, b); err != nil {
			return nil, err
		}
		total := openDur
		for i := range b.setupIngs[before:] {
			b.setupIngs[before+i].setup = k
			total += b.setupIngs[before+i].dur
		}
		b.setupS = append(b.setupS, total.Seconds())
		if k < n-1 {
			if err := b.closeStack(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(b.whDir); err != nil {
				return nil, err
			}
		}
	}
	sh := b.sh
	b.rec, b.sh = nil, nil
	b.st.store.disable()
	if err := w.warm(ctx, b); err != nil {
		return nil, err
	}

	res := &result{Correct: true}
	var m map[string]metric
	var err error
	if !opts.trace {
		steal0, total0 := cpuSteal()
		start := time.Now()
		w.phase(ctx, b, start.Add(time.Duration(opts.seconds)*time.Second))
		elapsed := time.Since(start)
		steal1, total1 := cpuSteal()
		if total1 > total0 {
			fmt.Printf("host cpu steal %.1f%% during the measured phase\n", 100*float64(steal1-steal0)/float64(total1-total0))
		}
		m, err = b.endToEnd(w, start, elapsed, false)
	} else {
		m, err = b.tracedPhases(ctx, w, rec, sh)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(len(b.reads) + len(b.writes))
	res.Failed = b.checkReads()
	if err := w.finish(ctx, b); err != nil {
		return nil, err
	}
	res.Correct = len(b.problems) == 0
	res.Metrics = m
	return res, nil
}

// endToEnd computes the end-to-end metrics from the reads and writes of the
// selected phase (traced or not), which started at start and lasted elapsed.
func (b *bench) endToEnd(w traffic, start time.Time, elapsed time.Duration, traced bool) (map[string]metric, error) {
	query, bounded := b.readSamples(traced, false), b.readSamples(traced, true)

	// The ingest median is printed, not reported: taken from the measured
	// phase's writes (sliced in time) or, for workloads without a writer,
	// from the set-ups' ingests, its spread across runs was too wide for a
	// bound (see README.md).
	var writes []writeResult
	for _, wr := range b.writes {
		if wr.traced == traced && wr.err == nil {
			writes = append(writes, wr)
		}
	}
	var ingestP50 float64
	if len(writes) > 0 {
		width := elapsed / nSlices
		ingestP50 = ingestMedian(writes, func(wr writeResult) int { return sliceOf(wr.start, start, width) })
	} else {
		ingestP50 = ingestMedian(b.setupIngs, func(wr writeResult) int { return wr.setup })
	}
	sb, err := storeBytes(b.whDir)
	if err != nil {
		return nil, fmt.Errorf("measure store: %w", err)
	}
	m := map[string]metric{
		"setup_s":                   {quantile(b.setupS, 0.5), "s"},
		"query_p50_ms":              {sliceMedian(query, start, elapsed), "ms"},
		"bounded_p50_ms":            {sliceMedian(bounded, start, elapsed), "ms"},
		"store_bytes_per_partition": {float64(sb) / float64(w.held()), "B"},
		"peak_rss_mb":               {peakRSSMiB(), "MiB"},
	}
	fmt.Printf("samples query=%d bounded=%d writes=%d elapsed=%.3fs ingest_p50_ms=%.3f\n",
		len(query), len(bounded), len(writes), elapsed.Seconds(), ingestP50)
	return m, nil
}

// readLoop runs one closed-loop client: it issues ops(i) for i = 0, 1, ...
// until the deadline, recording each completed read and then pausing for
// think(i) when think is not nil.
func (b *bench) readLoop(ctx context.Context, deadline time.Time, client int, ops func(i int) readOp, think func(i int) time.Duration) {
	for i := 0; time.Now().Before(deadline); i++ {
		r := b.read(ctx, ops(i), fmt.Sprintf("c%d-%d", client, i))
		b.record(&r, nil)
		if think != nil {
			time.Sleep(min(think(i), time.Until(deadline)))
		}
	}
}

// clients runs fn on n goroutines and waits for all of them.
func clients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
