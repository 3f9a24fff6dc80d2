package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

	// Drop two idle transients: the rebuild heats once for the two cells
	// that miss and decodes the rest.
	removed := 0
	entries, err := os.ReadDir(opts.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(opts.CacheDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracecodec.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if tr.Run == "heatcool-VF2" || tr.Run == "heatcool-VF4" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
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
