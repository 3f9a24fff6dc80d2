// Package simcache is the persistent, content-addressed store for
// simulation traces. The campaign layer (internal/experiments) keys
// every deterministic simulation cell — benchmark collection, idle
// transients, power-gating sweep cells, Section V exploration runs —
// by a fingerprint of its full identity and asks the store to either
// decode the cached trace or run the simulation and persist the result.
//
// Properties (docs/CACHE.md):
//
//   - Segmented: a Store appends every entry it computes, in the
//     tracecodec binary format, to one temp segment file in the cache
//     directory and keeps only a key → (offset, length) index in
//     memory. Flush seals the segment: it appends a footer index and
//     renames the file into place as dir/seg-<seq>-<id>.ppts. Open
//     reads only the footers of sealed segments, and a hit reads one
//     entry. Keys already encode the codec schema version, so a layout
//     change simply misses and re-simulates; each segment also records
//     the schema it was written under, and Open removes the segments of
//     any other schema, so a schema bump does not leave the old cache on
//     disk for good.
//   - Atomic visibility: other stores, including other processes, see
//     sealed segments only, and only those sealed before their Open.
//     For a key in more than one segment the newest segment wins.
//   - Corruption-tolerant: a segment whose footer does not check out
//     is counted, best-effort removed, and ignored; an entry that fails
//     to read or decode is counted, dropped from the index, and treated
//     as a miss — the cache can never turn damaged bytes into a wrong
//     result.
//   - Fail-open: write failures (read-only disk, ENOSPC) are counted
//     but never fail the campaign; the computed trace is returned.
//
// Cached traces are shared and must be treated as immutable by callers.
package simcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ppep/internal/trace"
	"ppep/internal/tracecodec"
)

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of the sealed segments; after each
	// Flush the oldest segments are evicted whole, never the one just
	// sealed, until the total is back under the cap. 0 means unbounded.
	MaxBytes int64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits         int64 // entries served by decoding a cached entry
	Misses       int64 // absent entries (simulated and, normally, written)
	Corrupt      int64 // undecodable entries and segments with a bad footer, treated as misses
	Evicted      int64 // entries in the segments removed by the MaxBytes cap or written under another schema
	WriteErrors  int64 // failed entry writes, including entries of a segment that failed to seal (the campaign proceeds regardless)
	BytesRead    int64 // encoded bytes decoded from cache
	BytesWritten int64 // encoded bytes persisted
}

// Segment layout: the entries back to back, then the index (one
// indexEntrySize record per entry: u64 key, u64 offset, u64 length),
// then a fixed trailer (u32 entry count, u32 CRC-32 of the index, u64
// index offset, u32 tracecodec.SchemaVersion, segMagic). All integers
// are little-endian. Segments sealed before the trailer recorded the
// schema end in segMagicV1 after the index offset; they read as schema 0.
const (
	segPrefix      = "seg-"
	segExt         = ".ppts"
	tmpPrefix      = ".tmp-"
	segMagic       = "PPSEG\x00v2"
	segMagicV1     = "PPSEG\x00v1"
	indexEntrySize = 24
	trailerSize    = 4 + 4 + 8 + 4 + 8 // the last 8: segMagic
	trailerSizeV1  = 4 + 4 + 8 + 8
)

var errFooter = errors.New("simcache: bad segment footer")

// loc is where an index entry's encoded bytes live: in a sealed
// segment, or in this session's temp file.
type loc struct {
	f      *os.File
	off, n int64
}

type indexEntry struct {
	key    uint64
	off, n int64
}

// Store is an on-disk trace cache. It is safe for concurrent use. It
// keeps open, for reads, the segment files its index points into; they
// are closed when the Store is garbage-collected.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards index, open, openOff and pending
	index   map[uint64]loc
	open    *os.File     // this session's temp segment, nil until a write
	openOff int64        // bytes appended to open
	pending []indexEntry // open's entries, in append order

	encoders sync.Pool

	hits, misses, corrupt   atomic.Int64
	evicted, writeErrors    atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// Open creates the cache directory if needed and returns a Store over
// it, indexing the footers of the segments sealed so far. Segments
// written under another tracecodec.SchemaVersion can never hit, so Open
// removes them, best effort, and counts their entries as evicted.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("simcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		index:    map[uint64]loc{},
		encoders: sync.Pool{New: func() any { return new(tracecodec.Encoder) }},
	}
	names, err := sealedSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	// Oldest first, so a newer segment's entry replaces an older one's.
	var loaded []*os.File
	for _, name := range names {
		if f := s.load(name); f != nil {
			loaded = append(loaded, f)
		}
	}
	live := map[*os.File]bool{}
	for _, l := range s.index {
		live[l.f] = true
	}
	for _, f := range loaded {
		if !live[f] {
			_ = f.Close() // read-only, and every entry it held is superseded
		}
	}
	return s, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// load opens one sealed segment and indexes its footer. A segment that
// vanished since the listing (another store evicted it) is skipped; one
// whose footer does not check out is counted corrupt and best-effort
// removed, and one of another schema is best-effort removed and its
// entries counted evicted.
func (s *Store) load(name string) *os.File {
	path := filepath.Join(s.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	entries, schema, err := readIndex(f)
	if err != nil || schema != tracecodec.SchemaVersion {
		_ = f.Close() // read-only
		if err != nil {
			s.corrupt.Add(1)
			// best-effort: a bad footer would be dropped on every Open; campaign correctness does not depend on the remove
			_ = os.Remove(path)
		} else if os.Remove(path) == nil {
			s.evicted.Add(int64(len(entries)))
		}
		return nil
	}
	for _, e := range entries {
		s.index[e.key] = loc{f, e.off, e.n}
	}
	return f
}

// get attempts a cache read. It returns (nil, false) on any miss —
// absent, unreadable, or undecodable — after updating the counters.
func (s *Store) get(key uint64) (*trace.Trace, bool) {
	s.mu.Lock()
	l, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	data := make([]byte, l.n)
	_, err := l.f.ReadAt(data, l.off)
	var tr *trace.Trace
	if err == nil {
		tr, err = tracecodec.Decode(data)
	}
	if err != nil {
		s.corrupt.Add(1)
		s.mu.Lock()
		if s.index[key] == l {
			delete(s.index, key)
		}
		s.mu.Unlock()
		return nil, false
	}
	s.hits.Add(1)
	s.bytesRead.Add(l.n)
	return tr, true
}

// GetOrCompute returns the cached trace for key, or runs compute,
// persists its result, and returns it. compute errors are returned
// verbatim and nothing is cached for them. Concurrent calls that miss
// on one key each compute and append an entry (the campaign's cells
// have distinct keys, so it never does this); the segment's index then
// holds the key more than once, and its last entry wins.
func (s *Store) GetOrCompute(key uint64, compute func() (*trace.Trace, error)) (*trace.Trace, error) {
	if tr, ok := s.get(key); ok {
		return tr, nil
	}
	s.misses.Add(1)
	tr, err := compute()
	if err == nil {
		s.put(key, tr)
	}
	return tr, err
}

// put appends one entry to the session's segment, creating the temp
// file on the first write. Failures are counted, never fatal: the
// cache fails open.
func (s *Store) put(key uint64, tr *trace.Trace) {
	enc := s.encoders.Get().(*tracecodec.Encoder)
	defer s.encoders.Put(enc)
	data, err := enc.Encode(tr)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open == nil {
		f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
		if err != nil {
			s.writeErrors.Add(1)
			return
		}
		s.open, s.openOff = f, 0
	}
	// A failed write leaves openOff where it was, so the next entry
	// overwrites whatever part of this one reached the file.
	if _, err := s.open.WriteAt(data, s.openOff); err != nil {
		s.writeErrors.Add(1)
		return
	}
	n := int64(len(data))
	s.index[key] = loc{s.open, s.openOff, n}
	s.pending = append(s.pending, indexEntry{key, s.openOff, n})
	s.openOff += n
	s.bytesWritten.Add(n)
}

// Flush seals the session's segment: it appends the footer index and
// renames the temp file into place, where stores opened from then on
// find it, then applies the MaxBytes cap. With nothing written since the
// last Flush it does nothing. The session's entries stay readable
// through this store either way. A failed seal removes the temp file
// and counts each of its entries in write_errors; the cache fails open.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, size, entries := s.open, s.openOff, s.pending
	if f == nil {
		return
	}
	s.open, s.openOff, s.pending = nil, 0, nil
	if len(entries) > 0 {
		name, err := s.seal(f, entries, size)
		if err == nil {
			if s.opts.MaxBytes > 0 {
				s.evict(name)
			}
			return
		}
		s.writeErrors.Add(int64(len(entries)))
		s.bytesWritten.Add(-size)
	} else {
		_ = f.Close() // holds no entry: every write to it failed
	}
	// best-effort: an unsealed temp file is garbage; the failure is already counted
	_ = os.Remove(f.Name())
}

// seal writes the footer after the size bytes of entries, cuts off any
// bytes a failed write left past it, and renames the file into place
// under the next sequence number.
func (s *Store) seal(f *os.File, entries []indexEntry, size int64) (string, error) {
	footer := make([]byte, len(entries)*indexEntrySize+trailerSize)
	for i, e := range entries {
		b := footer[i*indexEntrySize:]
		binary.LittleEndian.PutUint64(b, e.key)
		binary.LittleEndian.PutUint64(b[8:], uint64(e.off))
		binary.LittleEndian.PutUint64(b[16:], uint64(e.n))
	}
	idx := footer[:len(entries)*indexEntrySize]
	t := footer[len(idx):]
	binary.LittleEndian.PutUint32(t, uint32(len(entries)))
	binary.LittleEndian.PutUint32(t[4:], crc32.ChecksumIEEE(idx))
	binary.LittleEndian.PutUint64(t[8:], uint64(size))
	binary.LittleEndian.PutUint32(t[16:], tracecodec.SchemaVersion)
	copy(t[20:], segMagic)
	if _, err := f.WriteAt(footer, size); err != nil {
		return "", err
	}
	if err := f.Truncate(size + int64(len(footer))); err != nil {
		return "", err
	}
	names, err := sealedSegments(s.dir)
	if err != nil {
		return "", err
	}
	var seq uint64
	if len(names) > 0 {
		last, _ := segmentSeq(names[len(names)-1])
		seq = last + 1
	}
	id := strings.TrimPrefix(filepath.Base(f.Name()), tmpPrefix)
	name := fmt.Sprintf("%s%016x-%s%s", segPrefix, seq, id, segExt)
	return name, os.Rename(f.Name(), filepath.Join(s.dir, name))
}

// readIndex reads and checks a sealed segment's footer, returning its
// entries and the schema it was written under (0 for a segMagicV1
// segment, which predates the field).
func readIndex(f *os.File) ([]indexEntry, uint32, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := info.Size()
	var buf [trailerSize]byte
	t := buf[trailerSize-min(size, trailerSize):]
	if _, err := f.ReadAt(t, size-int64(len(t))); err != nil {
		return nil, 0, err
	}
	var schema uint32
	switch {
	case len(t) == trailerSize && string(t[20:]) == segMagic:
		schema = binary.LittleEndian.Uint32(t[16:])
	case len(t) >= trailerSizeV1 && string(t[len(t)-8:]) == segMagicV1:
		t = t[len(t)-trailerSizeV1:]
	default:
		return nil, 0, errFooter
	}
	tl := int64(len(t))
	count := int64(binary.LittleEndian.Uint32(t))
	sum := binary.LittleEndian.Uint32(t[4:])
	idxOff := binary.LittleEndian.Uint64(t[8:])
	idxLen := count * indexEntrySize
	if idxLen > size-tl || idxOff != uint64(size-tl-idxLen) {
		return nil, 0, errFooter
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(idx) != sum {
		return nil, 0, errFooter
	}
	entries := make([]indexEntry, count)
	for i := range entries {
		b := idx[i*indexEntrySize:]
		off, n := binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:])
		if n == 0 || off > idxOff || n > idxOff-off {
			return nil, 0, errFooter
		}
		entries[i] = indexEntry{binary.LittleEndian.Uint64(b), int64(off), int64(n)}
	}
	return entries, schema, nil
}

// sealedSegments lists the directory's sealed segments, oldest first:
// by sequence number, then by name.
func sealedSegments(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if _, ok := segmentSeq(de.Name()); ok && !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	// The sequence is fixed-width hex, so name order is age order.
	sort.Strings(names)
	return names, nil
}

// segmentSeq parses the sequence number of a sealed segment's name,
// seg-<%016x seq>-<id>.ppts.
func segmentSeq(name string) (uint64, bool) {
	const seqEnd = len(segPrefix) + 16
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) ||
		len(name) <= seqEnd+len(segExt) || name[seqEnd] != '-' {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(segPrefix):seqEnd], 16, 64)
	return seq, err == nil
}

// evict removes whole sealed segments, oldest first, until the
// directory's segments total at most MaxBytes, never touching keep (the
// segment just sealed). A removed segment this store has indexed stays
// readable through its open file.
func (s *Store) evict(keep string) {
	names, err := sealedSegments(s.dir)
	if err != nil {
		return
	}
	sizes := make([]int64, len(names))
	var total int64
	for i, name := range names {
		if info, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			sizes[i] = info.Size()
			total += sizes[i]
		}
	}
	for i, name := range names {
		if total <= s.opts.MaxBytes {
			return
		}
		if name == keep {
			continue
		}
		path := filepath.Join(s.dir, name)
		n := segmentEntries(path)
		if os.Remove(path) == nil {
			total -= sizes[i]
			s.evicted.Add(n)
		}
	}
}

// segmentEntries counts the entries of a sealed segment, 0 if its
// footer cannot be read.
func segmentEntries(path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	entries, _, _ := readIndex(f) // an unreadable footer counts no entries
	_ = f.Close()                 // read-only
	return int64(len(entries))
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Corrupt:      s.corrupt.Load(),
		Evicted:      s.evicted.Load(),
		WriteErrors:  s.writeErrors.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// String renders the counters in the machine-greppable key=value form
// the CI warm-cache smoke step matches on.
func (st Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d corrupt=%d evicted=%d write_errors=%d bytes_read=%d bytes_written=%d",
		st.Hits, st.Misses, st.Corrupt, st.Evicted, st.WriteErrors, st.BytesRead, st.BytesWritten)
}
