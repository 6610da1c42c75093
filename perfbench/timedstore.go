package main

import (
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/storage"
)

// timedStore wraps the file store handed to warehouse.Open. It implements
// storage.Store, storage.BlobStore and storage.RawStore by delegation, so the
// warehouse sees the same capabilities as on the bare file store. While
// enabled (traced runs only) it times every sample get and put and every
// catalog (blob) write, counts their bytes, and records one span per call;
// while disabled it costs one atomic load per call.
type timedStore struct {
	inner *storage.FileStore[int64]
	on    atomic.Bool
	rec   *recorder

	mu    sync.Mutex
	gets  opStat // sample reads
	puts  opStat // sample writes
	blobs opStat // catalog writes
}

// opStat accumulates one kind of store call.
type opStat struct {
	n, ns, bytes int64
}

// enable turns recording on, sending spans to rec.
func (s *timedStore) enable(rec *recorder) {
	s.rec = rec
	s.on.Store(true)
}

// disable turns recording off.
func (s *timedStore) disable() { s.on.Store(false) }

// snapshot returns the accumulated counters.
func (s *timedStore) snapshot() (gets, puts, blobs opStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts, s.blobs
}

// encodedSize is the size of the sample's stored form: the codec is
// deterministic, so this is the byte count of the file written or read.
func encodedSize(smp *core.Sample[int64]) int64 {
	b, err := storage.EncodeSample(smp, storage.Int64Codec{})
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// Put implements storage.Store.
func (s *timedStore) Put(key string, smp *core.Sample[int64]) error {
	if !s.on.Load() {
		return s.inner.Put(key, smp)
	}
	start := time.Now()
	err := s.inner.Put(key, smp)
	if err == nil {
		// Size the sample after the timed call so encoding it again is not
		// charged to the store.
		end := time.Now()
		size := encodedSize(smp)
		s.noteSpan("storage.put", &s.puts, start, end, size)
	}
	return err
}

// Get implements storage.Store.
func (s *timedStore) Get(key string) (*core.Sample[int64], error) {
	if !s.on.Load() {
		return s.inner.Get(key)
	}
	start := time.Now()
	smp, err := s.inner.Get(key)
	if err == nil {
		end := time.Now()
		s.noteSpan("storage.get", &s.gets, start, end, encodedSize(smp))
	}
	return smp, err
}

func (s *timedStore) noteSpan(name string, st *opStat, start, end time.Time, bytes int64) {
	s.mu.Lock()
	st.n++
	st.ns += end.Sub(start).Nanoseconds()
	st.bytes += bytes
	s.mu.Unlock()
	s.rec.add(name, "", 0, start, end, map[string]int64{"bytes": bytes})
}

// Delete implements storage.Store.
func (s *timedStore) Delete(key string) error { return s.inner.Delete(key) }

// Keys implements storage.Store.
func (s *timedStore) Keys(prefix string) ([]string, error) { return s.inner.Keys(prefix) }

// PutBlob implements storage.BlobStore. The warehouse writes its whole
// catalog (the manifest) through it on every roll-in and roll-out.
func (s *timedStore) PutBlob(name string, data []byte) error {
	if !s.on.Load() {
		return s.inner.PutBlob(name, data)
	}
	start := time.Now()
	err := s.inner.PutBlob(name, data)
	if err == nil {
		s.noteSpan("catalog.write", &s.blobs, start, time.Now(), int64(len(data)))
	}
	return err
}

// GetBlob implements storage.BlobStore.
func (s *timedStore) GetBlob(name string) ([]byte, error) { return s.inner.GetBlob(name) }

// GetRaw implements storage.RawStore.
func (s *timedStore) GetRaw(key string) ([]byte, error) { return s.inner.GetRaw(key) }

// PutRaw implements storage.RawStore.
func (s *timedStore) PutRaw(key string, data []byte) error { return s.inner.PutRaw(key, data) }

// DecodeRaw implements storage.RawStore.
func (s *timedStore) DecodeRaw(data []byte) (*core.Sample[int64], error) {
	return s.inner.DecodeRaw(data)
}
