package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
	"samplewh/internal/workload"
)

// rollin-window: the paper's sliding window. The data set holds 128 HR
// partitions with nF = 1024, each built from 8,192 uniform values of its own
// time slice (g·W, (g+1)·W], on the file store with the journal fsyncing
// every ingest. One writer ingests the next partition with an
// Idempotency-Key, rolls out the oldest and pauses; every roll-in and roll-out
// rewrites the whole catalog (about 1.4 MB at 128 partitions). Beside it
// one reader, pausing a random think time after each read, alternates
//
//   - avg over the newest 32 partitions (a full merge of small cached
//     samples, which stalls behind the writer's catalog lock), and
//   - fraction over the newest 64 with maxerr 0.1 and a range covering the
//     newest 32 slices, which the sketches prune to 32 and the planner
//     bounds.
//
// At the end the server and journal are closed and the directory reopened
// the way swd boots; the catalog must hold exactly the window the benchmark
// holds.
const (
	rwWindow = 128
	rwValues = 8192
	rwNF     = 1024
	rwWidth  = 1 << 16
	rwRecent = 32
	rwMaxErr = 0.1
	rwThink  = 25 * time.Millisecond
	rwPause  = 300 * time.Millisecond
)

type rollinWindow struct {
	seed uint64
	spec workload.Spec

	mu     sync.Mutex
	window population // acknowledged partitions, oldest first
	next   int64      // the next partition's sequence number
}

func newRollinWindow(seed uint64) traffic {
	return &rollinWindow{seed: seed, spec: workload.Spec{Dist: workload.Uniform, N: 1 << 40, Seed: seed, UniformMax: rwWidth}}
}

func (m *rollinWindow) held() int { return rwWindow }

// values generates partition g.
func (m *rollinWindow) values(g int64) []int64 {
	gen := workload.NewRange(m.spec, g*rwValues, (g+1)*rwValues)
	vals := gen.Batch(make([]int64, 0, rwValues), rwValues)
	for i := range vals {
		vals[i] += g * rwWidth
	}
	return vals
}

// ingestNext ingests partition m.next and appends it to the window.
func (m *rollinWindow) ingestNext(ctx context.Context, b *bench) (writeResult, error) {
	g := m.next
	p, w, err := b.ingest(ctx, fmt.Sprintf("w%07d", g), m.values(g))
	if err != nil {
		return w, err
	}
	m.mu.Lock()
	m.window = append(m.window, p)
	m.next++
	m.mu.Unlock()
	return w, nil
}

func (m *rollinWindow) setup(ctx context.Context, b *bench) error {
	for i := 0; i < rwWindow; i++ {
		w, err := m.ingestNext(ctx, b)
		b.setupIngs = append(b.setupIngs, w)
		if err != nil {
			return err
		}
	}
	return nil
}

// newest returns the k most recently acknowledged partitions, oldest first.
func (m *rollinWindow) newest(k int) population {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.window[len(m.window)-k:])
}

func (m *rollinWindow) op(i int) readOp {
	if i%2 == 0 {
		pop := m.newest(rwRecent)
		ids := pop.ids()
		n := pop.mergedSize(rwNF)
		return readOp{
			q:    "avg",
			opts: server.QueryOpts{Parts: ids},
			check: func(r *server.EstimateResponse) error {
				if err := checkCoverage(r.Coverage, r.Degraded, ids); err != nil {
					return err
				}
				if err := checkSampleMeta(r.Sample, pop, rwNF); err != nil {
					return err
				}
				return checkAvg(r.Estimate, pop, n)
			},
		}
	}
	pop := m.newest(2 * rwRecent)
	first := rwValueBase(pop[rwRecent].id)
	lo := first + rwWidth/4 + int64(pick(m.seed, uint64(i), rwWidth/2))
	hi := rwValueBase(pop[len(pop)-1].id) + rwWidth
	return readOp{
		bounded: true,
		q:       fmt.Sprintf("fraction:%d..%d", lo, hi),
		opts:    server.QueryOpts{Parts: pop.ids(), MaxErr: rwMaxErr},
		check: func(r *server.EstimateResponse) error {
			return checkBounded(r, pop, lo, hi, rwMaxErr, rwNF)
		},
	}
}

// think is the reader's pause after read i and pause the writer's after
// partition g's cycle: exponential with means rwThink and rwPause, drawn
// from the seed. Random pauses make the reads land at random points of the
// writer's cycle instead of falling into step with it, so their latencies
// sample the catalog-lock stalls evenly; the writer's pauses keep the lock
// free most of the time, so the median read shows the read path and the
// tail shows the stalls.
func (m *rollinWindow) think(i int) time.Duration { return expPause(m.seed, uint64(i)+1<<40, rwThink) }

func (m *rollinWindow) pause(g int) time.Duration { return expPause(m.seed, uint64(g)+2<<40, rwPause) }

// expPause draws an exponential duration with the given mean from (seed, i).
func expPause(seed, i uint64, mean time.Duration) time.Duration {
	u := (float64(pick(seed, i, 1<<53)) + 0.5) / (1 << 53)
	return time.Duration(-math.Log(u) * float64(mean))
}

// rwValueBase is the lower edge of a partition's value slice; partition ids
// are "w" and the sequence number.
func rwValueBase(id string) int64 {
	g, _ := strconv.ParseInt(id[1:], 10, 64) // ids are made by ingestNext
	return g * rwWidth
}

func (m *rollinWindow) warm(ctx context.Context, b *bench) error {
	for i := 0; i < 2; i++ {
		if r := b.read(ctx, m.op(i), "warm"); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.op.q, r.err)
		}
	}
	return nil
}

// phase runs the writer and the reader side by side.
func (m *rollinWindow) phase(ctx context.Context, b *bench, deadline time.Time) {
	clients(2, func(c int) {
		if c == 1 {
			b.readLoop(ctx, deadline, 1, m.op, m.think)
			return
		}
		for time.Now().Before(deadline) {
			w, err := m.ingestNext(ctx, b)
			b.record(nil, &w)
			if err != nil {
				return
			}
			m.mu.Lock()
			oldest := m.window[0].id
			m.mu.Unlock()
			out := b.rollOut(ctx, oldest)
			b.record(nil, &out)
			if out.err != nil {
				return
			}
			m.mu.Lock()
			m.window = m.window[1:]
			m.mu.Unlock()
			time.Sleep(min(m.pause(int(m.next)), time.Until(deadline)))
		}
	})
}

// finish closes the server and the journal, then reopens the directory the
// way swd boots — warehouse.Open, then wal.Open and ReplayJournal — and
// requires exactly the window the benchmark holds, each partition with the
// parent size of the values sent.
func (m *rollinWindow) finish(_ context.Context, b *bench) error {
	if err := b.closeStack(); err != nil {
		return fmt.Errorf("close for reopen: %w", err)
	}
	st, err := storage.NewFileStore[int64](b.whDir, storage.Int64Codec{})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	wh, _, err := warehouse.Open[int64](st, 0x535744)
	if err != nil {
		return fmt.Errorf("reopen warehouse: %w", err)
	}
	lg, recovered, err := wal.Open[int64](filepath.Join(b.whDir, "wal"), storage.Int64Codec{}, wal.Options{Policy: walPolicy})
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	defer lg.Close()
	if len(recovered) > 0 {
		if _, err := wh.ReplayJournal(lg, recovered); err != nil {
			return fmt.Errorf("replay journal: %w", err)
		}
	}
	got, err := wh.Partitions(dataset)
	if err != nil {
		return fmt.Errorf("reopened catalog: %w", err)
	}
	if want := m.window.ids(); !slices.Equal(got, want) {
		b.problem("reopened catalog holds %d partitions %v..., want the window of %d", len(got), got[:min(3, len(got))], len(want))
		return nil
	}
	for _, p := range m.window {
		info, err := wh.Info(dataset, p.id)
		if err != nil {
			b.problem("reopened partition %s: %v", p.id, err)
			return nil
		}
		if info.ParentSize != p.n() {
			b.problem("reopened partition %s: parent size %d, want %d", p.id, info.ParentSize, p.n())
		}
	}
	return nil
}
