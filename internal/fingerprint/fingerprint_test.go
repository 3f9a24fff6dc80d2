package fingerprint

import (
	"hash/fnv"
	"testing"
)

// TestPrimitivesMatchStdlibFNV cross-checks the inlined mixing against
// hash/fnv on the same byte stream.
func TestPrimitivesMatchStdlibFNV(t *testing.T) {
	ref := fnv.New64a()
	ref.Write([]byte{0x01, 0x02, 0x03})
	got := New().Byte(0x01).Byte(0x02).Byte(0x03).Sum()
	if got != ref.Sum64() {
		t.Fatalf("Byte mixing = %#x, stdlib fnv = %#x", got, ref.Sum64())
	}

	ref = fnv.New64a()
	ref.Write([]byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11})
	if got := New().U64(0x1122334455667788).Sum(); got != ref.Sum64() {
		t.Fatalf("U64 is not little-endian FNV-1a: %#x vs %#x", got, ref.Sum64())
	}

	ref = fnv.New64a()
	ref.Write([]byte("433 x2@5"))
	if got := New().Raw("433 x2@5").Sum(); got != ref.Sum64() {
		t.Fatalf("Raw is not the plain FNV-1a of the string: %#x vs %#x", got, ref.Sum64())
	}
}

func TestDistinguishesShapes(t *testing.T) {
	cases := [][2]any{
		{"", []string{}},      // empty string vs empty slice
		{nil, ""},             // nil vs empty string
		{int64(1), uint64(1)}, // signed vs unsigned
		{1.0, int64(1)},       // float vs int
		{true, int64(1)},      // bool vs int
		{[]string{"ab", "c"}, []string{"a", "bc"}}, // length prefix
		{0.0, negZero()}, // raw-bit floats: -0 != +0
	}
	for i, c := range cases {
		if Of(c[0]) == Of(c[1]) {
			t.Errorf("case %d: Of(%v) == Of(%v), want distinct", i, c[0], c[1])
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

type inner struct {
	A float64
	b int // unexported: skipped
}

type outer struct {
	Name string
	In   *inner
	M    map[string]int
}

func TestStructsAndPointers(t *testing.T) {
	x := outer{Name: "x", In: &inner{A: 1.5, b: 7}, M: map[string]int{"k": 1, "j": 2}}
	y := outer{Name: "x", In: &inner{A: 1.5, b: 99}, M: map[string]int{"j": 2, "k": 1}}
	if Of(x) != Of(y) {
		t.Fatalf("equal exported content via distinct pointers must hash equal")
	}
	y.In.A = 1.5000001
	if Of(x) == Of(y) {
		t.Fatalf("field change through pointer must change hash")
	}
	var nilIn outer
	if Of(x) == Of(nilIn) {
		t.Fatalf("nil pointer vs populated must differ")
	}
}

func TestMapOrderIndependent(t *testing.T) {
	// Build maps with different insertion orders; hash must agree.
	a := map[int]string{}
	b := map[int]string{}
	for i := 0; i < 100; i++ {
		a[i] = "v"
	}
	for i := 99; i >= 0; i-- {
		b[i] = "v"
	}
	if Of(a) != Of(b) {
		t.Fatalf("map hashing must be insertion-order independent")
	}
}

func TestStability(t *testing.T) {
	// Pin one composite hash so accidental algorithm changes are caught
	// (changing it invalidates every on-disk cache; see docs/CACHE.md).
	got := Of(uint32(1), "collect", int64(-3), 0.01, []bool{true, false})
	const want = uint64(0x026f113a72f052c1)
	if got != want {
		t.Fatalf("composite fingerprint = %#x, pinned %#x (algorithm changed: bump tracecodec.SchemaVersion)", got, want)
	}
}

func TestPanicsOnFunc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("hashing a func value must panic")
		}
	}()
	Of(func() {})
}
