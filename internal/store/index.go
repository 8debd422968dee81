package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Index operations. The log is append-only: a put supersedes any
// earlier line for the same key, a del tombstones it. Compaction
// rewrites the log as one put per live entry.
const (
	opPut = "put"
	opDel = "del"
)

// indexLine is one record of index.log.
type indexLine struct {
	Op         string `json:"op"`
	Key        string `json:"key"`
	Kind       string `json:"kind,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Size       int64  `json:"size,omitempty"`
	Created    int64  `json:"t,omitempty"`
}

// object is the self-describing on-disk entry format. Payload rides as
// base64 through encoding/json's []byte handling, so arbitrary bytes
// round-trip exactly; Sum is the hex SHA-256 of the raw payload and is
// verified on every read.
type object struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Meta    Meta   `json:"meta"`
	Created int64  `json:"created_unix"`
	Sum     string `json:"sum"`
	Payload []byte `json:"payload"`
}

func payloadSum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// decodeObject parses and verifies one object file's bytes. Every
// failure mode — truncation, bit flips, version drift, checksum
// mismatch — comes back as an error, never a panic or a silently
// wrong payload.
func decodeObject(data []byte) (object, error) {
	var o object
	if err := json.Unmarshal(data, &o); err != nil {
		return object{}, fmt.Errorf("store: undecodable object: %w", err)
	}
	if o.Version <= 0 || o.Version > FormatVersion {
		return object{}, fmt.Errorf("store: object version %d unsupported", o.Version)
	}
	if o.Key == "" {
		return object{}, errors.New("store: object has no key")
	}
	if o.Sum != payloadSum(o.Payload) {
		return object{}, errors.New("store: payload checksum mismatch")
	}
	return o, nil
}

func readObject(path string) (object, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return object{}, err
	}
	return decodeObject(data)
}

// decodeIndexLine parses one index.log line. The same tolerance rules
// as decodeObject apply: any malformation is an error for the caller
// to count, never a panic.
func decodeIndexLine(line []byte) (indexLine, error) {
	var l indexLine
	if err := json.Unmarshal(line, &l); err != nil {
		return indexLine{}, fmt.Errorf("store: undecodable index line: %w", err)
	}
	switch l.Op {
	case opPut:
		if l.Key == "" || l.Size < 0 {
			return indexLine{}, errors.New("store: malformed put line")
		}
	case opDel:
		if l.Key == "" {
			return indexLine{}, errors.New("store: malformed del line")
		}
	default:
		return indexLine{}, fmt.Errorf("store: unknown index op %q", l.Op)
	}
	return l, nil
}

// replayIndex folds an index log into its live entries. Returns the
// surviving records (last writer wins, tombstones erase) plus how many
// lines were skipped as corrupt. A missing trailing newline — the
// signature of a crash mid-append — is tolerated silently: the partial
// final line counts as corrupt only if it also fails to parse.
func replayIndex(r io.Reader) (map[string]indexLine, int, error) {
	live := make(map[string]indexLine)
	bad := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		l, err := decodeIndexLine(line)
		if err != nil {
			bad++
			continue
		}
		switch l.Op {
		case opPut:
			live[l.Key] = l
		case opDel:
			delete(live, l.Key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, bad, err
	}
	return live, bad, nil
}

// loadIndex replays index.log into the in-memory index. Corrupt lines
// are counted as quarantined; a wholly unreadable log is quarantined as
// a file and treated as empty (reconcileObjects rebuilds from the
// objects directory, which is the source of truth).
func (s *Store) loadIndex() error {
	f, err := os.Open(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	live, bad, rerr := replayIndex(f)
	f.Close()
	if rerr != nil {
		s.quarantineFile(s.indexPath(), "index")
		s.logger.Warn("store: index unreadable, rebuilding from objects", "error", rerr)
		return nil
	}
	if bad > 0 {
		s.quarantined += int64(bad)
		s.deadLines += bad
		s.logger.Warn("store: skipped corrupt index lines", "lines", bad)
	}
	for key, l := range live {
		s.idx[key] = &rec{
			key:     key,
			meta:    Meta{Kind: l.Kind, Experiment: l.Experiment, Seed: l.Seed},
			size:    l.Size,
			created: l.Created,
		}
	}
	return nil
}

// reconcileObjects walks the objects directory and heals both
// directions of index/object drift: an indexed key whose object file is
// gone is dropped; an unindexed-but-valid object (crash between the
// object write and the index append) is adopted; an invalid object is
// quarantined. Leftover temp files from interrupted atomic writes are
// removed.
func (s *Store) reconcileObjects() {
	objDir := filepath.Join(s.dir, "objects")
	names, err := os.ReadDir(objDir)
	if err != nil {
		s.logger.Warn("store: reading objects dir", "error", err)
		return
	}
	present := make(map[string]bool, len(names))
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(objDir, name)
		if strings.Contains(name, ".tmp") {
			os.Remove(path)
			continue
		}
		present[name] = true
	}

	// Index entries whose object vanished: quarantine the record.
	for key, r := range s.idx {
		if !present[hashKey(key)] {
			delete(s.idx, key)
			s.deadLines++
			s.quarantined++
			s.logger.Warn("store: indexed object missing", "key", key, "cause", r.meta.Kind)
		}
	}

	// Objects the index does not know: adopt the valid, quarantine the
	// rest. Adoption re-reads the file, so sizes reflect disk truth.
	indexed := make(map[string]bool, len(s.idx))
	for key := range s.idx {
		indexed[hashKey(key)] = true
	}
	for name := range present {
		if indexed[name] {
			continue
		}
		path := filepath.Join(objDir, name)
		obj, err := readObject(path)
		if err != nil || hashKey(obj.Key) != name {
			s.quarantineFile(path, "object")
			s.logger.Warn("store: quarantined stray object", "file", name, "cause", err)
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		s.idx[obj.Key] = &rec{key: obj.Key, meta: obj.Meta, size: fi.Size(), created: obj.Created}
		s.deadLines++ // the adopted entry is not in the log yet; compaction writes it
		s.logger.Info("store: adopted orphaned object", "key", obj.Key)
	}

	// Sizes recorded in the index can drift from disk (e.g. a put whose
	// index append was lost, then an older line replayed); trust stat.
	for key, r := range s.idx {
		if fi, err := os.Stat(filepath.Join(objDir, hashKey(key))); err == nil && fi.Size() != r.size {
			r.size = fi.Size()
			s.deadLines++
		}
	}
}

// appendIndexLocked durably appends one line to index.log.
func (s *Store) appendIndexLocked(l indexLine) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("store: encoding index line: %w", err)
	}
	data = append(data, '\n')
	if _, err := s.indexF.Write(data); err != nil {
		return fmt.Errorf("store: appending index: %w", err)
	}
	if err := s.indexF.Sync(); err != nil {
		return fmt.Errorf("store: syncing index: %w", err)
	}
	return nil
}

// maybeCompactLocked rewrites the log once superseded lines outnumber
// live entries, so the log stays proportional to the store.
func (s *Store) maybeCompactLocked() {
	if s.deadLines > 64 && s.deadLines > len(s.idx) {
		s.compactLocked()
	}
}

// compactLocked atomically replaces index.log with one put line per
// live entry.
func (s *Store) compactLocked() {
	var buf bytes.Buffer
	for _, e := range s.entriesLocked() {
		data, err := json.Marshal(indexLine{Op: opPut, Key: e.Key, Kind: e.Meta.Kind,
			Experiment: e.Meta.Experiment, Seed: e.Meta.Seed, Size: e.Size, Created: e.Created})
		if err != nil {
			s.logger.Warn("store: compaction encode", "key", e.Key, "error", err)
			return
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := writeFileAtomic(s.indexPath(), buf.Bytes()); err != nil {
		s.logger.Warn("store: compaction write", "error", err)
		return
	}
	if s.indexF != nil {
		s.indexF.Close()
		f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.logger.Error("store: reopening index after compaction", "error", err)
			s.closed = true
			return
		}
		s.indexF = f
	}
	s.deadLines = 0
}

// entriesLocked is Entries without locking, oldest-first for stable
// compaction output.
func (s *Store) entriesLocked() []Entry {
	out := make([]Entry, 0, len(s.idx))
	for _, r := range s.idx {
		out = append(out, Entry{Key: r.key, Meta: r.meta, Size: r.size, Created: r.created})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Created != out[j].Created {
			return out[i].Created < out[j].Created
		}
		return out[i].Key < out[j].Key
	})
	return out
}
