package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppep/internal/trace"
	"ppep/internal/tracecodec"
)

// TestCacheEquivalence runs the same reduced campaign three times: cold
// (no cache), cold into a fresh cache, and warm from that cache. All
// three must produce identical campaign fingerprints — the cache's core
// contract is bit-transparency — and the warm run must be pure decode
// (zero misses), including the lazily-collected exploration traces.
func TestCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign fingerprint is a multi-second run")
	}
	// MaxRunsPerSuite 3 is the smallest suite cap that still trains at
	// Scale 0.01 (the dynamic-power fit needs enough top-voltage samples).
	opts := Options{Scale: 0.01, MaxRunsPerSuite: 3, Workers: 4}

	uncached, err := NewFXCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(uncached)
	if _, ok := uncached.CacheStats(); ok {
		t.Fatal("campaign without CacheDir reports cache stats")
	}

	opts.CacheDir = t.TempDir()
	cold, err := NewFXCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignFingerprint(cold); got != want {
		t.Errorf("cold cached campaign fingerprint %#x, want uncached %#x", got, want)
	}
	if _, err := cold.exploreTraces(); err != nil {
		t.Fatal(err)
	}
	coldStats, ok := cold.CacheStats()
	if !ok || coldStats.Misses == 0 || coldStats.Hits != 0 {
		t.Fatalf("cold stats = %+v, want all misses", coldStats)
	}

	warm, err := NewFXCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignFingerprint(warm); got != want {
		t.Errorf("warm campaign fingerprint %#x, want %#x", got, want)
	}
	wtr, err := warm.exploreTraces()
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := cold.exploreTraces()
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range ctr {
		w, ok := wtr[name]
		if !ok || w.Fingerprint() != tr.Fingerprint() {
			t.Errorf("explore trace %q differs between cold and warm", name)
		}
	}
	warmStats, ok := warm.CacheStats()
	if !ok {
		t.Fatal("warm campaign reports no cache stats")
	}
	if warmStats.Misses != 0 || warmStats.Corrupt != 0 {
		t.Errorf("warm stats = %+v, want zero misses (pure decode)", warmStats)
	}
	if warmStats.Hits != coldStats.Misses {
		t.Errorf("warm hits %d != cold misses %d: cell keys unstable across runs",
			warmStats.Hits, coldStats.Misses)
	}

	// The cold build and its exploration sealed one segment each; the
	// warm rebuild wrote nothing.
	if segs, err := filepath.Glob(filepath.Join(opts.CacheDir, "seg-*.ppts")); err != nil || len(segs) != 2 {
		t.Errorf("cache holds segments %v (%v), want 2", segs, err)
	}

	// Drop two idle transients: the rebuild heats once for the two cells
	// that miss and decodes the rest.
	removed := dropEntries(t, opts.CacheDir, func(tr *trace.Trace) bool {
		return tr.Run == "heatcool-VF2" || tr.Run == "heatcool-VF4"
	})
	if removed != 2 {
		t.Fatalf("removed %d idle entries, want 2", removed)
	}
	partial, err := NewFXCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignFingerprint(partial); got != want {
		t.Errorf("partially warm campaign fingerprint %#x, want %#x", got, want)
	}
	if st, _ := partial.CacheStats(); st.Misses != 2 {
		t.Errorf("partially warm stats = %+v, want exactly 2 misses", st)
	}
}

// dropEntries rewrites every sealed segment in dir without the entries
// whose trace drop selects, and returns how many it dropped. It follows
// the segment layout of docs/CACHE.md: the entries, then one 24-byte
// index record (key, offset, length) per entry, then a 28-byte trailer
// (entry count, CRC-32 of the index, index offset, schema, magic).
func dropEntries(t *testing.T, dir string, drop func(*trace.Trace) bool) int {
	t.Helper()
	const recSize, trailerSize = 24, 28
	le := binary.LittleEndian
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.ppts"))
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		trailer := data[len(data)-trailerSize:]
		count, idxOff := int(le.Uint32(trailer)), le.Uint64(trailer[8:])
		var body, idx []byte
		for i := 0; i < count; i++ {
			rec := data[idxOff+uint64(i*recSize):]
			off, n := le.Uint64(rec[8:]), le.Uint64(rec[16:])
			entry := data[off : off+n]
			tr, err := tracecodec.Decode(entry)
			if err != nil {
				t.Fatalf("%s entry %d: %v", path, i, err)
			}
			if drop(tr) {
				dropped++
				continue
			}
			idx = le.AppendUint64(idx, le.Uint64(rec))
			idx = le.AppendUint64(idx, uint64(len(body)))
			idx = le.AppendUint64(idx, n)
			body = append(body, entry...)
		}
		out := append(body, idx...)
		out = le.AppendUint32(out, uint32(len(idx)/recSize))
		out = le.AppendUint32(out, crc32.ChecksumIEEE(idx))
		out = le.AppendUint64(out, uint64(len(body)))
		out = append(out, trailer[16:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dropped
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		opts Options
		frag string
	}{
		{Options{Scale: -0.5}, "Scale"},
		{Options{Scale: math.NaN()}, "Scale"},
		{Options{Scale: math.Inf(1)}, "Scale"},
		{Options{Scale: math.Inf(-1)}, "Scale"},
		{Options{MaxRunsPerSuite: -1}, "MaxRunsPerSuite"},
		{Options{Workers: -2}, "Workers"},
	}
	for _, tc := range cases {
		if _, err := NewFXCampaign(tc.opts); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("NewFXCampaign(%+v): err = %v, want mention of %s", tc.opts, err, tc.frag)
		}
		if _, err := NewPhenomCampaign(tc.opts); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("NewPhenomCampaign(%+v): err = %v, want mention of %s", tc.opts, err, tc.frag)
		}
	}
}

// TestSeedOfGolden pins two seeds produced by the original fmt.Fprintf
// implementation: the direct FNV mixing must keep the byte-identical
// hash input, or every golden fingerprint in the repo would drift.
func TestSeedOfGolden(t *testing.T) {
	if got := seedOf("idle", 1); got != 0x280786bab6f0d428 {
		t.Errorf("seedOf(\"idle\", 1) = %#x, want 0x280786bab6f0d428", got)
	}
	if got := seedOf("433 x2", 5); got != 0x586403ec6f43a442 {
		t.Errorf("seedOf(\"433 x2\", 5) = %#x, want 0x586403ec6f43a442", got)
	}
}

func TestSeedOfAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		seedOf("462+470", 3)
	}); n != 0 {
		t.Errorf("seedOf allocates %.0f times per call, want 0", n)
	}
}
