package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FormatVersion is the on-disk format this package reads and writes.
// Open refuses a directory whose manifest declares a newer version —
// writing into it could corrupt data a newer binary still needs.
const FormatVersion = 1

// Meta describes an entry beyond its payload. Kind partitions the key
// space ("result", "kernel-result", "campaign-spec", "campaign-state",
// "campaign-report", "checkpoint"); Experiment and Seed carry enough of
// the originating request for cache warming and debugging.
type Meta struct {
	Kind       string `json:"kind"`
	Experiment string `json:"experiment,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
}

// Entry is one index row: everything known about a stored payload
// without reading its object file.
type Entry struct {
	Key     string
	Meta    Meta
	Size    int64
	Created int64 // unix nanoseconds
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Puts        int64 `json:"puts"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Quarantined int64 `json:"quarantined"`
	Evictions   int64 `json:"evictions"`
}

// Options configures Open.
type Options struct {
	// Dir is the store directory; created if absent. Required.
	Dir string
	// MaxBytes bounds the total object bytes; 0 means unbounded.
	// Exceeding the bound evicts least-recently-used evictable entries
	// (see protectedKinds).
	MaxBytes int64
	// Logger receives open/quarantine/GC logs; nil means slog.Default().
	Logger *slog.Logger
}

// protectedKinds are never evicted by the size bound: losing them would
// break campaign resume, which is the whole point of the store.
var protectedKinds = map[string]bool{
	"campaign-spec":  true,
	"campaign-state": true,
	"checkpoint":     true,
}

// rec is the in-memory index record behind an Entry.
type rec struct {
	key     string
	meta    Meta
	size    int64
	created int64
	el      *list.Element // position in the LRU list (front = recent)
}

// Store is a durable key→payload map with atomic writes and a bounded
// footprint. Safe for concurrent use.
type Store struct {
	dir    string
	max    int64
	logger *slog.Logger

	mu        sync.Mutex
	idx       map[string]*rec
	lru       *list.List // of *rec
	bytes     int64
	indexF    *os.File
	deadLines int // index lines superseded since the last compaction
	closed    bool

	puts, hits, misses, quarantined, evictions int64
}

// manifest is the MANIFEST.json schema.
type manifest struct {
	Version int `json:"version"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Open opens (or initialises) the store at opts.Dir. It never fails on
// corrupted entries: bad index lines are skipped, bad objects are
// quarantined, and an unreadable manifest is quarantined and rewritten.
// It does fail on a manifest from a newer format version, and on I/O
// errors that make the directory unusable.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "objects"), filepath.Join(opts.Dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:    opts.Dir,
		max:    opts.MaxBytes,
		logger: logger,
		idx:    make(map[string]*rec),
		lru:    list.New(),
	}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	s.reconcileObjects()

	// Order the LRU by creation time (oldest at the back) so GC after a
	// restart evicts the oldest entries first until real access
	// patterns re-rank them.
	recs := make([]*rec, 0, len(s.idx))
	for _, r := range s.idx {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].created != recs[j].created {
			return recs[i].created < recs[j].created
		}
		return recs[i].key < recs[j].key
	})
	for _, r := range recs {
		r.el = s.lru.PushFront(r)
		s.bytes += r.size
	}

	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.indexF = f
	if s.deadLines > len(s.idx) {
		s.compactLocked()
	}
	metOpens.Inc()
	logger.Debug("store opened", "dir", s.dir, "entries", len(s.idx), "bytes", s.bytes)
	return s, nil
}

func (s *Store) indexPath() string    { return filepath.Join(s.dir, "index.log") }
func (s *Store) manifestPath() string { return filepath.Join(s.dir, "MANIFEST.json") }

// objectPath maps a key to its object file: keys are arbitrary strings,
// file names are their hex SHA-256.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", hashKey(key))
}

func hashKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// checkManifest validates or (re)writes MANIFEST.json. A corrupt
// manifest is quarantined and replaced; a future-version manifest is a
// hard error.
func (s *Store) checkManifest() error {
	data, err := os.ReadFile(s.manifestPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s.writeManifest()
	case err != nil:
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	var m manifest
	if jerr := json.Unmarshal(data, &m); jerr != nil || m.Version <= 0 {
		s.quarantineFile(s.manifestPath(), "manifest")
		return s.writeManifest()
	}
	if m.Version > FormatVersion {
		return fmt.Errorf("store: %s is format version %d, this binary writes version %d", s.manifestPath(), m.Version, FormatVersion)
	}
	return nil
}

func (s *Store) writeManifest() error {
	data, _ := json.Marshal(manifest{Version: FormatVersion})
	return writeFileAtomic(s.manifestPath(), append(data, '\n'))
}

// Put durably stores payload under key, overwriting any previous
// payload. The object write is atomic and fsynced before the index
// records it, so a crash at any instant leaves either the old entry,
// the new entry, or an orphaned-but-complete object that the next open
// adopts.
func (s *Store) Put(key string, payload []byte, meta Meta) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	now := time.Now().UnixNano()
	obj := object{
		Version: FormatVersion,
		Key:     key,
		Meta:    meta,
		Created: now,
		Sum:     payloadSum(payload),
		Payload: payload,
	}
	data, err := json.Marshal(obj)
	if err != nil {
		return fmt.Errorf("store: encoding %q: %w", key, err)
	}
	data = append(data, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := writeFileAtomic(s.objectPath(key), data); err != nil {
		return fmt.Errorf("store: writing %q: %w", key, err)
	}
	size := int64(len(data))
	if old, ok := s.idx[key]; ok {
		s.bytes -= old.size
		old.size = size
		old.meta = meta
		old.created = now
		s.lru.MoveToFront(old.el)
		s.bytes += size
		s.deadLines++
	} else {
		r := &rec{key: key, meta: meta, size: size, created: now}
		r.el = s.lru.PushFront(r)
		s.idx[key] = r
		s.bytes += size
	}
	if err := s.appendIndexLocked(indexLine{Op: opPut, Key: key, Kind: meta.Kind,
		Experiment: meta.Experiment, Seed: meta.Seed, Size: size, Created: now}); err != nil {
		return err
	}
	s.puts++
	s.gcLocked()
	s.maybeCompactLocked()
	return nil
}

// Get returns the payload and metadata stored under key. A missing key
// is a plain miss; an entry that fails decoding or checksum
// verification is quarantined, dropped from the index and reported as a
// miss — corruption never surfaces as an error or a wrong payload.
func (s *Store) Get(key string) ([]byte, Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Meta{}, false
	}
	r, ok := s.idx[key]
	if !ok {
		s.misses++
		return nil, Meta{}, false
	}
	obj, err := readObject(s.objectPath(key))
	if err == nil && obj.Key != key {
		err = fmt.Errorf("object key %q does not match index key", obj.Key)
	}
	if err != nil {
		s.dropCorruptLocked(r, err)
		s.misses++
		return nil, Meta{}, false
	}
	s.lru.MoveToFront(r.el)
	s.hits++
	return obj.Payload, obj.Meta, true
}

// Has reports whether key is indexed, without touching the payload or
// the LRU order.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[key]
	return ok && !s.closed
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	r, ok := s.idx[key]
	if !ok {
		return nil
	}
	return s.removeLocked(r)
}

// DeletePrefix removes every key with the given prefix (campaigns use
// it to drop a finished experiment's checkpoints) and returns how many
// entries were deleted.
func (s *Store) DeletePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	n := 0
	for key, r := range s.idx {
		if strings.HasPrefix(key, prefix) {
			if s.removeLocked(r) == nil {
				n++
			}
		}
	}
	return n
}

// removeLocked deletes one entry: object file, index record, LRU node.
func (s *Store) removeLocked(r *rec) error {
	if err := os.Remove(s.objectPath(r.key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: deleting %q: %w", r.key, err)
	}
	s.forgetLocked(r)
	return s.appendIndexLocked(indexLine{Op: opDel, Key: r.key})
}

// forgetLocked drops a record from the in-memory index without
// touching disk.
func (s *Store) forgetLocked(r *rec) {
	delete(s.idx, r.key)
	s.lru.Remove(r.el)
	s.bytes -= r.size
	s.deadLines++
}

// dropCorruptLocked quarantines a bad object and forgets its record.
func (s *Store) dropCorruptLocked(r *rec, cause error) {
	s.quarantineFile(s.objectPath(r.key), "object")
	s.forgetLocked(r)
	if err := s.appendIndexLocked(indexLine{Op: opDel, Key: r.key}); err != nil {
		s.logger.Warn("store: recording quarantine", "key", r.key, "error", err)
	}
	s.logger.Warn("store: quarantined corrupt entry", "key", r.key, "cause", cause)
}

// quarantineFile moves path into quarantine/ under a unique name and
// counts it. Used for objects, index fragments and manifests alike.
func (s *Store) quarantineFile(path, label string) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s-%d-%s", label, time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil && !errors.Is(err, os.ErrNotExist) {
		// Rename can only really fail across devices; fall back to
		// removal so a corrupt file cannot be re-read forever.
		os.Remove(path)
	}
	s.quarantined++
}

// gcLocked evicts least-recently-used evictable entries until the
// store fits its byte bound.
func (s *Store) gcLocked() {
	if s.max <= 0 || s.bytes <= s.max {
		return
	}
	for el := s.lru.Back(); el != nil && s.bytes > s.max; {
		r := el.Value.(*rec)
		el = el.Prev()
		if protectedKinds[r.meta.Kind] {
			continue
		}
		if err := s.removeLocked(r); err != nil {
			s.logger.Warn("store: gc", "key", r.key, "error", err)
			continue
		}
		s.evictions++
	}
	if s.bytes > s.max {
		s.logger.Warn("store: over byte bound but nothing evictable",
			"bytes", s.bytes, "max", s.max)
	}
}

// Entries lists the index sorted newest-first (creation time, then key)
// — the order cache warming wants.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.idx))
	for _, r := range s.idx {
		out = append(out, Entry{Key: r.key, Meta: r.meta, Size: r.size, Created: r.created})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Created != out[j].Created {
			return out[i].Created > out[j].Created
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// EntriesByKind filters Entries to one kind.
func (s *Store) EntriesByKind(kind string) []Entry {
	all := s.Entries()
	out := all[:0]
	for _, e := range all {
		if e.Meta.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.idx),
		Bytes:       s.bytes,
		Puts:        s.puts,
		Hits:        s.hits,
		Misses:      s.misses,
		Quarantined: s.quarantined,
		Evictions:   s.evictions,
	}
}

// Close compacts the index and releases the file handle. The store
// remains readable on disk; further method calls fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.deadLines > 0 {
		s.compactLocked()
	}
	s.closed = true
	if s.indexF != nil {
		return s.indexF.Close()
	}
	return nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsyncs the file, renames it over the target and fsyncs the directory
// — the standard crash-safe publication sequence.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
