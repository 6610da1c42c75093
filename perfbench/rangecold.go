package main

import (
	"context"
	"fmt"
	"time"

	"samplewh/internal/server"
	"samplewh/internal/workload"
)

// range-cold: 64 temporal partitions of 65,536 values, partition i holding
// uniform values from its own slice (i·W, (i+1)·W] of the domain, nF = 8192,
// cache off. 64 stored samples of about 64 KiB each do not fit a cache that
// is off, so every read loads and decodes from the store. One closed-loop
// client alternates
//
//   - count: over a fixed 1/8 of the domain at a seeded offset: sketch
//     pruning leaves the 9 partitions the range touches, and the estimate is
//     stratified, with no merge;
//   - fraction: over half the domain with maxerr 0.1: the planner ranks the
//     33 overlapping partitions and the incremental executor merges until
//     the bound holds.
//
// Range ends fall in the middle half of a slice, never near its edges, so a
// partition the range touches always has sampled values inside it and one
// it misses never does: sketch pruning is then exact, and the benchmark can
// require the pruned set to equal the partitions it knows miss the range.
const (
	rcParts  = 64
	rcValues = 65536
	rcNF     = 8192
	rcWidth  = 1 << 20
	rcMaxErr = 0.1
	// rcPruneChecks is how many count queries are re-asked with ?prune=0
	// after the measured phase; their answers must be identical.
	rcPruneChecks = 4
)

type rangeCold struct {
	seed uint64
	pop  population
}

func newRangeCold(seed uint64) traffic { return &rangeCold{seed: seed} }

func (m *rangeCold) held() int { return rcParts }

func (m *rangeCold) setup(ctx context.Context, b *bench) error {
	spec := workload.Spec{Dist: workload.Uniform, N: rcParts * rcValues, Seed: m.seed, UniformMax: rcWidth}
	for i := 0; i < rcParts; i++ {
		g := workload.NewRange(spec, int64(i)*rcValues, int64(i+1)*rcValues)
		vals := g.Batch(make([]int64, 0, rcValues), rcValues)
		for j := range vals {
			vals[j] += int64(i) * rcWidth
		}
		p, w, err := b.ingest(ctx, fmt.Sprintf("t%02d", i), vals)
		b.setupIngs = append(b.setupIngs, w)
		if err != nil {
			return err
		}
		m.pop = append(m.pop, p)
	}
	return nil
}

// rangeAt is the i-th query's range: spans slices of the domain starting
// in the middle half of a seeded slice.
func (m *rangeCold) rangeAt(i int, span int64) (lo, hi int64) {
	k := int64(pick(m.seed, uint64(2*i), uint64(rcParts-span)))
	jitter := rcWidth/4 + int64(pick(m.seed, uint64(2*i+1), rcWidth/2))
	lo = k*rcWidth + jitter
	return lo, lo + span*rcWidth - 1
}

func (m *rangeCold) op(i int) readOp {
	ids := m.pop.ids()
	if i%2 == 0 {
		lo, hi := m.rangeAt(i, rcParts/8)
		return readOp{
			q: fmt.Sprintf("count:%d..%d", lo, hi),
			check: func(r *server.EstimateResponse) error {
				if err := checkCoverage(r.Coverage, r.Degraded, ids); err != nil {
					return err
				}
				if err := checkSketchPruned(r.Coverage.SketchPruned, m.pop, lo, hi); err != nil {
					return err
				}
				if r.Sample.Kind != "stratified" || r.Sample.ParentSize != m.pop.n() {
					return fmt.Errorf("answer over %s sample of parent size %d, want stratified over %d",
						r.Sample.Kind, r.Sample.ParentSize, m.pop.n())
				}
				return checkStratifiedCount(r.Estimate, m.pop, lo, hi)
			},
		}
	}
	lo, hi := m.rangeAt(i, rcParts/2)
	return readOp{
		bounded: true,
		q:       fmt.Sprintf("fraction:%d..%d", lo, hi),
		opts:    server.QueryOpts{MaxErr: rcMaxErr},
		check: func(r *server.EstimateResponse) error {
			return checkBounded(r, m.pop, lo, hi, rcMaxErr, rcNF)
		},
	}
}

func (m *rangeCold) warm(ctx context.Context, b *bench) error {
	for i := 0; i < 2; i++ {
		if r := b.read(ctx, m.op(i), "warm"); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.op.q, r.err)
		}
	}
	return nil
}

func (m *rangeCold) phase(ctx context.Context, b *bench, deadline time.Time) {
	b.readLoop(ctx, deadline, 0, m.op, nil)
}

// finish re-asks the first count queries with sketch pruning off: pruning
// must not change the answer at all.
func (m *rangeCold) finish(ctx context.Context, b *bench) error {
	for i := 0; i < 2*rcPruneChecks; i += 2 {
		op := m.op(i)
		pruned, err := b.st.cl.Estimate(ctx, dataset, op.q, server.QueryOpts{})
		if err != nil {
			return fmt.Errorf("prune check %s: %w", op.q, err)
		}
		full, err := b.st.cl.Estimate(ctx, dataset, op.q, server.QueryOpts{NoPrune: true})
		if err != nil {
			return fmt.Errorf("prune check %s: %w", op.q, err)
		}
		if pruned.Estimate == nil || full.Estimate == nil || *pruned.Estimate != *full.Estimate {
			b.problem("%s: pruned answer %+v differs from the ?prune=0 answer %+v", op.q, pruned.Estimate, full.Estimate)
		}
		if len(full.Coverage.SketchPruned) != 0 || len(full.Coverage.Merged) != rcParts {
			b.problem("%s with ?prune=0: merged %d partitions, sketch-pruned %d", op.q, len(full.Coverage.Merged), len(full.Coverage.SketchPruned))
		}
	}
	return nil
}
