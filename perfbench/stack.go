package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// walPolicy is swd's default journal fsync policy (-wal-sync=always): every
// acknowledged ingest is fsynced before its 201.
var walPolicy = wal.SyncAlways

// stack is one running instance of what `swd -dir` builds, in process: the
// same constructors with swd's default flags, except the cache budget, which
// each workload sets.
type stack struct {
	store   *timedStore
	wh      *warehouse.Warehouse[int64]
	journal *wal.Log[int64]
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	cl      *server.Client
	tr      *http.Transport
	// respBytes counts response body bytes the client has read.
	respBytes *atomic.Int64
}

// openStack builds the stack over dir, mirroring cmd/swd's run(): the file
// store is instrumented into the registry, wrapped in the benchmark's timing
// decorator (which records nothing until enabled), opened as a durable
// warehouse, given the journal, served on a loopback port, and its journal
// replayed before the first request.
func openStack(dir string, cacheBytes int64) (*stack, error) {
	reg := obs.NewRegistry()
	reg.SetSink(obs.NewMemorySink(256))
	fstore, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	fstore.Instrument(reg)
	st := &timedStore{inner: fstore}
	wh, _, err := warehouse.Open[int64](st, 0x535744)
	if err != nil {
		return nil, fmt.Errorf("open warehouse: %w", err)
	}
	wh.Instrument(reg)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: cacheBytes})
	journal, recovered, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{},
		wal.Options{Policy: walPolicy, Interval: 100 * time.Millisecond, SegmentBytes: 64 << 20, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	srv := server.New(wh, server.Config{
		DefaultTimeout:   2 * time.Second,
		MaxTimeout:       30 * time.Second,
		IngestLimit:      4,
		ReadLimit:        64,
		QueueWait:        100 * time.Millisecond,
		SlowLogThreshold: 500 * time.Millisecond,
		SlowLogSize:      64,
		Registry:         reg,
		Journal:          journal,
	})
	if len(recovered) > 0 {
		rep, err := wh.ReplayJournal(journal, recovered)
		if err != nil {
			_ = journal.Close()
			return nil, fmt.Errorf("replay journal: %w", err)
		}
		srv.SeedIdempotency(rep.Replayed)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = journal.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{store: st, wh: wh, journal: journal, srv: srv,
		httpSrv: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1), respBytes: new(atomic.Int64)}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.tr = &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	httpc := &http.Client{Transport: countingTransport{inner: s.tr, n: s.respBytes}}
	s.cl = server.NewClient("http://"+ln.Addr().String(), httpc).SetRetryPolicy(server.NoRetry())
	return s, nil
}

// close drains the server the way swd does on SIGTERM, waits for the serve
// goroutine to end, and closes the journal.
func (s *stack) close() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.FinishDrain()
	if jerr := s.journal.Close(); jerr != nil && err == nil {
		err = jerr
	}
	s.tr.CloseIdleConnections()
	return err
}

// metrics fetches the server's /metricsz snapshot.
func (s *stack) metrics(ctx context.Context) (obs.Snapshot, error) {
	raw, err := s.cl.Metrics(ctx)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("fetch /metricsz: %w", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode /metricsz: %w", err)
	}
	return snap, nil
}

// storeBytes sums the sizes of the files the warehouse keeps in dir — sample
// files and the catalog — leaving out the journal, which belongs to the
// server's ingest path.
func storeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "wal" || d.Name() == "shadow-wal" {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
