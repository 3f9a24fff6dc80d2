package fxsim

import "testing"

func TestConfigFingerprint(t *testing.T) {
	a := DefaultFX8320Config()
	b := DefaultFX8320Config()
	// Default constructors allocate fresh Power/NB structs; equal content
	// behind distinct pointers must fingerprint equal.
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	if a.Fingerprint() == DefaultPhenomIIConfig().Fingerprint() {
		t.Fatal("FX and Phenom configs fingerprint equal")
	}

	b.SensorSeed++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("sensor seed change not reflected in fingerprint")
	}

	b = DefaultFX8320Config()
	b.PowerGating = true
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("PowerGating change not reflected in fingerprint")
	}

	// A change behind the shared Power pointer must change the hash.
	b = DefaultFX8320Config()
	b.Power.BaseW += 0.001
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("power-truth change behind pointer not reflected in fingerprint")
	}

	b = DefaultFX8320Config()
	b.NB.BandwidthGBs *= 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("NB change behind pointer not reflected in fingerprint")
	}
}

// TestDefaultConfigFingerprints pins the platform component of every
// trace-cache key. The fingerprint mixes in exported field names, so
// renaming, adding or removing an exported field of Config or of what it
// reaches (arch.Topology, powertruth.Config, mem.NB) re-keys the whole
// cache even when no simulated trace changes. A failure here is that
// re-keying: re-record the constants and bump tracecodec.SchemaVersion
// with them, so the old schema's segments are removed from cache
// directories instead of being kept on disk unread.
func TestDefaultConfigFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"FX-8320", DefaultFX8320Config(), 0xe285128e572bdae8},
		{"Phenom II", DefaultPhenomIIConfig(), 0x45ce2ff953e1d8dc},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s config fingerprint %#x, pinned %#x: the cache key's platform component moved; bump tracecodec.SchemaVersion and re-record the pin",
				tc.name, got, tc.want)
		}
	}
}
