package simcache

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/tracecodec"
)

func testTrace(run string, n int) *trace.Trace {
	t := &trace.Trace{Run: run, Suite: "SPE", Platform: "fx8320"}
	for i := 0; i < n; i++ {
		t.Intervals = append(t.Intervals, trace.Interval{
			TimeS: float64(i) * 0.2, DurS: 0.2, TempK: 315, MeasPowerW: 80,
			TruePowerW: 81, TrueCoreW: 60, TrueNBW: 12,
			PerCoreVF:    []arch.VFState{5, 5},
			Counters:     []arch.EventVec{{1e9, 2e8}, {3e9, 4e8}},
			Busy:         []bool{true, false},
			TrueCoreDynW: []float64{7.5, 0.1},
		})
	}
	return t
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMissThenHit(t *testing.T) {
	s := mustOpen(t, Options{})
	want := testTrace("433 x2", 5)
	computes := 0
	get := func() (*trace.Trace, error) {
		tr, err := s.GetOrCompute(42, func() (*trace.Trace, error) {
			computes++
			return want, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, nil
	}

	tr1, _ := get()
	if computes != 1 || tr1.Fingerprint() != want.Fingerprint() {
		t.Fatalf("cold get: computes=%d", computes)
	}
	tr2, _ := get()
	if computes != 1 {
		t.Fatalf("warm get recomputed (computes=%d)", computes)
	}
	if tr2.Fingerprint() != want.Fingerprint() {
		t.Fatalf("warm get fingerprint differs from original")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.BytesWritten == 0 || st.BytesRead != st.BytesWritten {
		t.Fatalf("bytes read/written mismatch: %+v", st)
	}
}

func TestDistinctKeysDistinctEntries(t *testing.T) {
	s := mustOpen(t, Options{})
	a := testTrace("a", 1)
	b := testTrace("b", 2)
	ra, _ := s.GetOrCompute(1, func() (*trace.Trace, error) { return a, nil })
	rb, _ := s.GetOrCompute(2, func() (*trace.Trace, error) { return b, nil })
	if ra.Run != "a" || rb.Run != "b" {
		t.Fatalf("wrong traces back: %q %q", ra.Run, rb.Run)
	}
	ra2, _ := s.GetOrCompute(1, func() (*trace.Trace, error) { t.Fatal("recompute"); return nil, nil })
	if ra2.Fingerprint() != a.Fingerprint() {
		t.Fatalf("key 1 returned wrong trace")
	}
}

// sealOne writes one entry under key into a fresh session of dir and
// seals it, returning the sealed segment's path.
func sealOne(t *testing.T, dir string, opts Options, key uint64, tr *trace.Trace) string {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrCompute(key, func() (*trace.Trace, error) { return tr, nil }); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	return filepath.Join(dir, newest(t, dir))
}

// newest returns the name of the directory's newest sealed segment.
func newest(t *testing.T, dir string) string {
	t.Helper()
	names, err := sealedSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no sealed segment in %s (%v)", dir, err)
	}
	return names[len(names)-1]
}

// dirFiles lists the cache directory's sealed segments and temp files.
func dirFiles(t *testing.T, dir string) (segs, tmps []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, tmpPrefix):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt):
			segs = append(segs, name)
		default:
			t.Fatalf("unexpected file %s in cache dir", name)
		}
	}
	return segs, tmps
}

// patch overwrites len(b) bytes of the file at off.
func patch(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSealReopenHit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*trace.Trace{}
	for k := uint64(0); k < 5; k++ {
		tr := testTrace("seal", int(k)+1)
		want[k] = tr
		if _, err := s.GetOrCompute(k, func() (*trace.Trace, error) { return tr, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	written := s.Stats().BytesWritten

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, tr := range want {
		got, err := r.GetOrCompute(k, func() (*trace.Trace, error) { t.Fatalf("key %d recomputed after reopen", k); return nil, nil })
		if err != nil || got.Fingerprint() != tr.Fingerprint() {
			t.Fatalf("key %d: err=%v, wrong trace after reopen", k, err)
		}
	}
	if st := r.Stats(); st.Hits != 5 || st.Misses != 0 || st.BytesRead != written {
		t.Fatalf("reopened stats = %+v, want 5 hits reading the %d bytes written", st, written)
	}
	// A store that only read seals nothing.
	r.Flush()
	if segs, tmps := dirFiles(t, dir); len(segs) != 1 || len(tmps) != 0 {
		t.Fatalf("segments %v, temp files %v: want one segment and no temp file", segs, tmps)
	}
}

func TestStoreSeesSegmentsSealedBeforeOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testTrace("w", 3)
	if _, err := w.GetOrCompute(1, func() (*trace.Trace, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	before, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	after, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := after.GetOrCompute(1, func() (*trace.Trace, error) { t.Fatal("store opened after the Flush recomputed"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	computes := 0
	if _, err := before.GetOrCompute(1, func() (*trace.Trace, error) { computes++; return want, nil }); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("store opened before the Flush computed %d times, want 1 (it sees no later segment)", computes)
	}
	if st := after.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after-Flush store stats = %+v, want 1 hit", st)
	}
}

func TestCorruptEntryIsMissAndRecovers(t *testing.T) {
	dir := t.TempDir()
	want := testTrace("x", 3)
	// The segment's only entry starts at offset 0 with the codec magic.
	seg := sealOne(t, dir, Options{}, 7, want)
	patch(t, seg, 0, []byte("XXXX"))

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	tr, err := s.GetOrCompute(7, func() (*trace.Trace, error) { computes++; return want, nil })
	if err != nil || computes != 1 {
		t.Fatalf("corrupt entry: err=%v computes=%d, want recompute", err, computes)
	}
	if tr.Fingerprint() != want.Fingerprint() {
		t.Fatalf("recomputed trace wrong")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1 Misses=1", st)
	}
	// The rewritten entry hits in this session, and from its newer
	// segment after a reopen.
	if _, err := s.GetOrCompute(7, func() (*trace.Trace, error) { t.Fatal("recompute"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetOrCompute(7, func() (*trace.Trace, error) { t.Fatal("recompute after reopen"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Corrupt != 0 || st.Hits != 1 {
		t.Fatalf("reopened stats = %+v, want the newer segment's entry to win", st)
	}
}

func TestCorruptFooterDropsSegment(t *testing.T) {
	want := testTrace("f", 2)
	for _, tc := range []struct {
		name string
		off  func(size int64) int64 // byte to flip, from the file size
	}{
		{"magic", func(size int64) int64 { return size - 1 }},
		{"count", func(size int64) int64 { return size - trailerSize }},
		{"entry length", func(size int64) int64 { return size - trailerSize - 1 }},
		{"entry key", func(size int64) int64 { return size - trailerSize - indexEntrySize }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := sealOne(t, dir, Options{}, 4, want)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			off := tc.off(info.Size())
			patch(t, seg, off, []byte{data[off] ^ 0x40})

			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			computes := 0
			if _, err := s.GetOrCompute(4, func() (*trace.Trace, error) { computes++; return want, nil }); err != nil || computes != 1 {
				t.Fatalf("bad footer: err=%v computes=%d, want a miss", err, computes)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v, want Corrupt=1", st)
			}
			if _, err := os.Stat(seg); !os.IsNotExist(err) {
				t.Fatalf("segment with a bad footer not removed: %v", err)
			}
		})
	}
}

func TestSchemaMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	want := testTrace("x", 2)
	seg := sealOne(t, dir, Options{}, 9, want)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], tracecodec.SchemaVersion+1)
	patch(t, seg, 4, v[:])

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	if _, err := s.GetOrCompute(9, func() (*trace.Trace, error) { computes++; return want, nil }); err != nil || computes != 1 {
		t.Fatalf("schema mismatch: err=%v computes=%d, want miss+recompute", err, computes)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1 (schema mismatch counts as undecodable)", st)
	}
}

// TestOtherSchemaSegmentsRemoved seals three segments and marks one with
// the previous schema and one in the layout from before segments
// recorded theirs: Open removes both, counts their entries as evicted
// and not as corrupt, and keeps serving the current segment.
func TestOtherSchemaSegmentsRemoved(t *testing.T) {
	dir := t.TempDir()
	want := testTrace("x", 2)
	current := sealOne(t, dir, Options{}, 1, want)
	f, err := os.Open(current)
	if err != nil {
		t.Fatal(err)
	}
	_, schema, err := readIndex(f)
	_ = f.Close() // read-only
	if err != nil || schema != tracecodec.SchemaVersion {
		t.Fatalf("sealed segment records schema %d (err %v), want %d", schema, err, tracecodec.SchemaVersion)
	}

	// Seal two entries to mark with the previous schema and one to
	// rewrite in the old layout; every Open removes marked segments, so
	// all three are sealed before any is marked.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(2); k <= 3; k++ {
		if _, err := s.GetOrCompute(k, func() (*trace.Trace, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	previous := filepath.Join(dir, newest(t, dir))
	legacy := sealOne(t, dir, Options{}, 4, want)

	info, err := os.Stat(previous)
	if err != nil {
		t.Fatal(err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], tracecodec.SchemaVersion-1)
	patch(t, previous, info.Size()-12, v[:])
	// The old layout's trailer ends with the index offset followed
	// directly by its magic.
	data, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:len(data)-12], segMagicV1...)
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Evicted != 3 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want Evicted=3 (the other schemas' entries) and Corrupt=0", st)
	}
	for _, gone := range []string{previous, legacy} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("segment %s of another schema not removed: %v", filepath.Base(gone), err)
		}
	}
	if segs, _ := dirFiles(t, dir); len(segs) != 1 || filepath.Join(dir, segs[0]) != current {
		t.Fatalf("segments %v, want only %s", segs, filepath.Base(current))
	}
	if _, err := r.GetOrCompute(1, func() (*trace.Trace, error) { t.Fatal("current segment's entry recomputed"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	computes := 0
	for k := uint64(2); k <= 4; k++ {
		if _, err := r.GetOrCompute(k, func() (*trace.Trace, error) { computes++; return want, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if computes != 3 {
		t.Fatalf("%d of the removed segments' 3 keys recomputed, want all", computes)
	}
}

// TestDuplicateKeyNewestSegmentWins seals the same key from two stores
// that cannot see each other, in both orders: a third store serves the
// trace of the segment sealed last.
func TestDuplicateKeyNewestSegmentWins(t *testing.T) {
	a, b := testTrace("a", 2), testTrace("b", 3)
	for _, order := range [][2]*trace.Trace{{a, b}, {b, a}} {
		dir := t.TempDir()
		var stores [2]*Store
		for i := range stores {
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = s
		}
		for i, s := range stores {
			tr := order[i]
			if _, err := s.GetOrCompute(1, func() (*trace.Trace, error) { return tr, nil }); err != nil {
				t.Fatal(err)
			}
			s.Flush()
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.GetOrCompute(1, func() (*trace.Trace, error) { t.Fatal("recompute"); return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got.Run != order[1].Run {
			t.Fatalf("sealed %q then %q: got %q, want the newest segment's", order[0].Run, order[1].Run, got.Run)
		}
	}
}

// TestConcurrentDuplicateKey has eight calls miss on one key at once:
// each computes and appends its entry, every caller gets the trace,
// the sealed segment's index holds the key eight times, and a fresh
// store hits it without a miss.
func TestConcurrentDuplicateKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testTrace("dup", 2)
	const callers = 8
	var inCompute sync.WaitGroup
	inCompute.Add(callers)
	var wg sync.WaitGroup
	results := make([]*trace.Trace, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := s.GetOrCompute(11, func() (*trace.Trace, error) {
				// Every caller misses before any of them writes.
				inCompute.Done()
				inCompute.Wait()
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = tr
		}(i)
	}
	wg.Wait()
	for i, tr := range results {
		if tr == nil || tr.Fingerprint() != want.Fingerprint() {
			t.Fatalf("caller %d got wrong trace", i)
		}
	}
	if st := s.Stats(); st.Misses != callers {
		t.Fatalf("stats = %+v, want Misses=%d", st, callers)
	}

	s.Flush()
	segs, tmps := dirFiles(t, dir)
	if len(segs) != 1 || len(tmps) != 0 {
		t.Fatalf("segments %v, temp files %v: want one segment and no temp file", segs, tmps)
	}
	f, err := os.Open(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := readIndex(f)
	_ = f.Close() // read-only
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != callers {
		t.Fatalf("sealed index has %d entries, want %d", len(entries), callers)
	}
	for _, e := range entries {
		if e.key != 11 {
			t.Fatalf("sealed index holds key %d, want only 11", e.key)
		}
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetOrCompute(11, func() (*trace.Trace, error) { t.Fatal("duplicate key recomputed after reopen"); return nil, nil })
	if err != nil || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("err=%v, wrong trace after reopen", err)
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("reopened stats = %+v, want 1 hit and misses=0", st)
	}
}

// TestConcurrentWritersThenSeal computes distinct keys from several
// goroutines at once, each re-reading the keys it wrote while the others
// append, then seals: every entry hits after a reopen.
func TestConcurrentWritersThenSeal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				key := uint64(w*perWriter + k)
				for pass := 0; pass < 2; pass++ {
					tr, err := s.GetOrCompute(key, func() (*trace.Trace, error) { return testTrace("c", int(key%5)+1), nil })
					if err != nil || len(tr.Intervals) != int(key%5)+1 {
						t.Errorf("key %d pass %d: err=%v", key, pass, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	s.Flush()
	if st := s.Stats(); st.Misses != writers*perWriter || st.Hits != writers*perWriter {
		t.Fatalf("stats = %+v, want one miss and one hit per key", st)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < writers*perWriter; key++ {
		tr, err := r.GetOrCompute(key, func() (*trace.Trace, error) { t.Fatalf("key %d recomputed after reopen", key); return nil, nil })
		if err != nil || len(tr.Intervals) != int(key%5)+1 {
			t.Fatalf("key %d after reopen: err=%v", key, err)
		}
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	s := mustOpen(t, Options{})
	boom := errors.New("boom")
	if _, err := s.GetOrCompute(3, func() (*trace.Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	computes := 0
	want := testTrace("ok", 1)
	tr, err := s.GetOrCompute(3, func() (*trace.Trace, error) { computes++; return want, nil })
	if err != nil || computes != 1 || tr.Fingerprint() != want.Fingerprint() {
		t.Fatalf("failed compute must not poison the key: err=%v computes=%d", err, computes)
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	s := mustOpen(t, Options{})
	for k := uint64(0); k < 5; k++ {
		key := k
		if _, err := s.GetOrCompute(key, func() (*trace.Trace, error) { return testTrace("t", int(key)+1), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, tmps := dirFiles(t, s.Dir()); len(tmps) != 1 {
		t.Fatalf("temp files %v before Flush, want the session's one segment", tmps)
	}
	s.Flush()
	segs, tmps := dirFiles(t, s.Dir())
	if len(segs) != 1 || len(tmps) != 0 {
		t.Fatalf("segments %v, temp files %v after Flush: want one segment and no temp file", segs, tmps)
	}
	// A second Flush with nothing new written is a no-op.
	s.Flush()
	if again, tmps := dirFiles(t, s.Dir()); len(again) != 1 || len(tmps) != 0 {
		t.Fatalf("segments %v, temp files %v after an empty Flush", again, tmps)
	}
}

// TestWriteFailureLeavesNoTempFile breaks the session's segment file
// after its first entry: the next write and the seal fail, every
// GetOrCompute still returns its trace, and Flush leaves neither a
// temp file nor a segment behind.
func TestWriteFailureLeavesNoTempFile(t *testing.T) {
	s := mustOpen(t, Options{})
	first := testTrace("first", 2)
	if _, err := s.GetOrCompute(1, func() (*trace.Trace, error) { return first, nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.open.Close(); err != nil {
		t.Fatal(err)
	}
	want := testTrace("second", 3)
	tr, err := s.GetOrCompute(2, func() (*trace.Trace, error) { return want, nil })
	if err != nil || tr.Fingerprint() != want.Fingerprint() {
		t.Fatalf("failed write must still return the computed trace: err=%v", err)
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Fatalf("stats = %+v, want WriteErrors=1 for the failed append", st)
	}
	s.Flush()
	if st := s.Stats(); st.WriteErrors != 2 || st.BytesWritten != 0 {
		t.Fatalf("stats = %+v, want the unsealed entry counted in WriteErrors and no bytes persisted", st)
	}
	if segs, tmps := dirFiles(t, s.Dir()); len(segs) != 0 || len(tmps) != 0 {
		t.Fatalf("segments %v, temp files %v after a failed seal: want none", segs, tmps)
	}
}

// TestEviction seals four one-entry segments under a cap of 2.5
// segments, then one two-entry segment under a cap smaller than
// itself: the oldest segments go whole, their entries counted, and the
// segment just sealed always stays.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	probe := sealOne(t, dir, Options{}, 999, testTrace("probe", 4))
	info, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}
	segSize := info.Size()
	if err := os.Remove(probe); err != nil {
		t.Fatal(err)
	}

	opts := Options{MaxBytes: 2*segSize + segSize/2}
	var sealed []string
	var evicted int64
	for k := uint64(0); k < 4; k++ {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetOrCompute(k, func() (*trace.Trace, error) { return testTrace("e", 4), nil }); err != nil {
			t.Fatal(err)
		}
		s.Flush()
		sealed = append(sealed, newest(t, dir))
		evicted += s.Stats().Evicted
	}
	segs, _ := dirFiles(t, dir)
	if evicted != 2 || len(segs) != 2 || segs[0] != sealed[2] || segs[1] != sealed[3] {
		t.Fatalf("evicted %d entries, left %v; want the two oldest of %v gone", evicted, segs, sealed)
	}

	s, err := Open(dir, Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k < 12; k++ {
		if _, err := s.GetOrCompute(k, func() (*trace.Trace, error) { return testTrace("big", 4), nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	segs, _ = dirFiles(t, dir)
	if st := s.Stats(); st.Evicted != 2 || len(segs) != 1 || segs[0] != newest(t, dir) {
		t.Fatalf("stats = %+v, left %v: want both older segments evicted and the new one kept", st, segs)
	}
	// Entries of evicted segments this store indexed stay readable.
	if _, err := s.GetOrCompute(3, func() (*trace.Trace, error) { t.Fatal("recompute of an indexed, evicted entry"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFailureFailsOpen(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	s := mustOpen(t, Options{})
	if err := os.Chmod(s.Dir(), 0o555); err != nil {
		t.Fatal(err)
	}
	defer func() {
		// best-effort: restore so t.TempDir cleanup can remove the directory
		_ = os.Chmod(s.Dir(), 0o755)
	}()
	want := testTrace("ro", 1)
	tr, err := s.GetOrCompute(5, func() (*trace.Trace, error) { return want, nil })
	if err != nil || tr.Fingerprint() != want.Fingerprint() {
		t.Fatalf("read-only cache must still return the computed trace: err=%v", err)
	}
	s.Flush()
	if st := s.Stats(); st.WriteErrors == 0 {
		t.Fatalf("stats = %+v, want WriteErrors > 0", st)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") must error")
	}
}
