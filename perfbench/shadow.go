package main

import (
	"context"
	"fmt"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// shadowDataset receives the bench-side roll-ins. It lives in the same
// warehouse as the workload's data set, so each roll-in rewrites the same
// catalog the server's roll-ins do, but queries never see it.
const shadowDataset = "shadow"

// shadow replays each traced ingest through the program's public functions,
// one layer at a time, so their cost can be timed from the benchmark's own
// code: the data set's partition sampler (Feed, Finalize), the sketch
// sidecar (sketch.FromSample), a journal of the same policy (Begin, Append,
// SealContext, Commit) and the warehouse catalog (RollIn, RollOut). The
// server ran the same steps for the same values just before.
type shadow struct {
	wh  *warehouse.Warehouse[int64]
	log *wal.Log[int64]
	rec *recorder

	ingests, values                       int64
	feedNS, finalizeNS, sketchNS          int64
	appendNS, sealNS, rollinNS, rolloutNS int64
}

// newShadow creates the shadow data set and opens the shadow journal.
func newShadow(wh *warehouse.Warehouse[int64], walDir string, nf int64, rec *recorder) (*shadow, error) {
	if err := wh.CreateDataset(shadowDataset, warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(nf)}); err != nil {
		return nil, fmt.Errorf("shadow data set: %w", err)
	}
	lg, _, err := wal.Open[int64](walDir, storage.Int64Codec{}, wal.Options{Policy: walPolicy})
	if err != nil {
		return nil, fmt.Errorf("shadow journal: %w", err)
	}
	return &shadow{wh: wh, log: lg, rec: rec}, nil
}

func (s *shadow) close() error { return s.log.Close() }

// ingest runs the layers of one roll-in for partition id's values. Its
// spans share the request id of the client ingest they shadow.
func (s *shadow) ingest(id, key string, vals []int64) error {
	rootStart := time.Now()
	type step struct {
		name       string
		start, end time.Time
	}
	var steps []step
	timed := func(name string, acc *int64, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		*acc += end.Sub(start).Nanoseconds()
		steps = append(steps, step{name, start, end})
		return err
	}

	smp, err := s.wh.NewPartitionSampler(dataset, id, 0)
	if err != nil {
		return fmt.Errorf("shadow sampler: %w", err)
	}
	_ = timed("sampler.feed", &s.feedNS, func() error {
		for _, v := range vals {
			smp.Feed(v)
		}
		return nil
	})
	var sample *core.Sample[int64]
	if err := timed("sampler.finalize", &s.finalizeNS, func() (err error) {
		sample, err = smp.Finalize()
		return err
	}); err != nil {
		return fmt.Errorf("shadow finalize: %w", err)
	}
	_ = timed("sketch.build", &s.sketchNS, func() error {
		sketch.FromSample(sample)
		return nil
	})

	e, err := s.log.Begin(dataset, id, key, 0)
	if err != nil {
		return fmt.Errorf("shadow journal begin: %w", err)
	}
	defer e.Abort()
	if err := timed("wal.append", &s.appendNS, func() error {
		for off := 0; off < len(vals); off += 4096 {
			if err := e.Append(vals[off:min(off+4096, len(vals))]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("shadow journal append: %w", err)
	}
	if err := timed("wal.seal", &s.sealNS, func() error {
		return e.SealContext(context.Background(), int64(len(vals)))
	}); err != nil {
		return fmt.Errorf("shadow journal seal: %w", err)
	}
	if err := e.Commit(); err != nil {
		return fmt.Errorf("shadow journal commit: %w", err)
	}

	if err := timed("warehouse.rollin", &s.rollinNS, func() error {
		return s.wh.RollIn(shadowDataset, id, sample)
	}); err != nil {
		return fmt.Errorf("shadow roll-in: %w", err)
	}
	if err := timed("warehouse.rollout", &s.rolloutNS, func() error {
		return s.wh.RollOut(shadowDataset, id)
	}); err != nil {
		return fmt.Errorf("shadow roll-out: %w", err)
	}
	s.ingests++
	s.values += int64(len(vals))

	root := s.rec.add("bench.shadow_ingest", id, 0, rootStart, time.Now(), map[string]int64{"values": int64(len(vals))})
	for _, st := range steps {
		s.rec.add(st.name, id, root, st.start, st.end, nil)
	}
	return nil
}
