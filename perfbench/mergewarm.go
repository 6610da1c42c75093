package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"samplewh/internal/server"
	"samplewh/internal/workload"
)

// merge-warm: 16 HR partitions of 65,536 Zipfian values over 65,536
// distinct values, nF = 8192. All sixteen decoded samples (about 2 MiB)
// stay resident in swd's 64 MiB cache, so every main read is a 16-way
// HRMerge over cached samples, and storage and the catalog sit idle. Two
// closed-loop clients rotate avg, sum, median, quantile:0.95, topk:10 and a
// bounded fraction query (maxerr 0.1), which runs the planner's incremental
// merge over the same cached samples.
const (
	mwParts  = 16
	mwValues = 65536
	mwDomain = 65536
	mwNF     = 8192
	mwMaxErr = 0.1
	mwRound  = 6
)

type mergeWarm struct {
	seed uint64
	pop  population
	// mode is computed once, by the first top-k check.
	modeOnce sync.Once
	mode     modeStat
}

func (m *mergeWarm) trueMode() modeStat {
	m.modeOnce.Do(func() { m.mode = m.pop.mode() })
	return m.mode
}

func newMergeWarm(seed uint64) traffic { return &mergeWarm{seed: seed} }

func (m *mergeWarm) held() int { return mwParts }

func (m *mergeWarm) setup(ctx context.Context, b *bench) error {
	spec := workload.Spec{Dist: workload.Zipfian, N: mwParts * mwValues, Seed: m.seed, ZipfValues: mwDomain}
	for i := 0; i < mwParts; i++ {
		g := workload.NewRange(spec, int64(i)*mwValues, int64(i+1)*mwValues)
		p, w, err := b.ingest(ctx, fmt.Sprintf("z%02d", i), g.Batch(make([]int64, 0, mwValues), mwValues))
		b.setupIngs = append(b.setupIngs, w)
		if err != nil {
			return err
		}
		m.pop = append(m.pop, p)
	}
	return nil
}

// op is the i-th read of the rotation. The bounded query's upper bound is
// drawn from the seed, so the same seed asks the same questions.
func (m *mergeWarm) op(i int) readOp {
	ids := m.pop.ids()
	full := func(extra func(*server.EstimateResponse) error) func(*server.EstimateResponse) error {
		return func(r *server.EstimateResponse) error {
			if err := checkCoverage(r.Coverage, r.Degraded, ids); err != nil {
				return err
			}
			if len(r.Coverage.Merged) != len(ids) {
				return fmt.Errorf("merged %d of %d partitions", len(r.Coverage.Merged), len(ids))
			}
			if err := checkSampleMeta(r.Sample, m.pop, mwNF); err != nil {
				return err
			}
			return extra(r)
		}
	}
	n := m.pop.mergedSize(mwNF)
	switch i % mwRound {
	case 0:
		return readOp{q: "avg", check: full(func(r *server.EstimateResponse) error { return checkAvg(r.Estimate, m.pop, n) })}
	case 1:
		return readOp{q: "sum", check: full(func(r *server.EstimateResponse) error { return checkSum(r.Estimate, m.pop, n) })}
	case 2:
		return readOp{q: "median", check: full(func(r *server.EstimateResponse) error { return checkQuantile(r.Quantile, 0.5, m.pop, n) })}
	case 3:
		return readOp{q: "quantile:0.95", check: full(func(r *server.EstimateResponse) error { return checkQuantile(r.Quantile, 0.95, m.pop, n) })}
	case 4:
		return readOp{q: "topk:10", check: full(func(r *server.EstimateResponse) error { return checkTopK(r.TopK, 10, m.pop, n, m.trueMode()) })}
	default:
		hi := int64(50 + pick(m.seed, uint64(i), 450))
		return readOp{
			bounded: true,
			q:       fmt.Sprintf("fraction:1..%d", hi),
			opts:    server.QueryOpts{MaxErr: mwMaxErr},
			check: func(r *server.EstimateResponse) error {
				return checkBounded(r, m.pop, 1, hi, mwMaxErr, mwNF)
			},
		}
	}
}

func (m *mergeWarm) warm(ctx context.Context, b *bench) error {
	for i := 0; i < mwRound; i++ {
		r := b.read(ctx, m.op(i), "warm")
		if r.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.op.q, r.err)
		}
	}
	return nil
}

// phase runs two closed-loop clients, offset by half a round so they ask
// different query kinds at the same time.
func (m *mergeWarm) phase(ctx context.Context, b *bench, deadline time.Time) {
	clients(2, func(c int) {
		b.readLoop(ctx, deadline, c, func(i int) readOp { return m.op(i + c*mwRound/2) }, nil)
	})
}

func (m *mergeWarm) finish(context.Context, *bench) error { return nil }

// pick draws a value in [0, n) from (seed, i): the benchmark's per-request
// randomness, a SplitMix64 hash so request i is the same in every run.
func pick(seed, i, n uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z % n
}
