package pmc

import (
	"math"
	"testing"

	"ppep/internal/arch"
)

// steadyVec returns an increment vector with value v for every event.
func steadyVec(v float64) *arch.EventVec {
	var ev arch.EventVec
	for i := range ev {
		ev[i] = v
	}
	return &ev
}

func TestMuxGroupSplit(t *testing.T) {
	m := &Mux{}
	// Performance events E10–E12 must share a group so CPI and MCPI
	// ratios stay consistent.
	g := m.GroupOf(arch.CPUClocksNotHalted)
	if m.GroupOf(arch.RetiredInstructions) != g || m.GroupOf(arch.MABWaitCycles) != g {
		t.Error("performance events split across mux groups")
	}
	// Exactly six events per group — that is the whole point of
	// multiplexing six counters.
	var n0, n1 int
	for i := arch.EventID(1); i <= arch.NumEvents; i++ {
		if m.GroupOf(i) == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 != CountersPerCore || n1 != CountersPerCore {
		t.Errorf("group sizes %d/%d", n0, n1)
	}
}

func TestMuxSteadyWorkloadIsExact(t *testing.T) {
	// For a steady event stream, extrapolation reconstructs the true
	// counts exactly.
	m := &Mux{}
	for tick := 0; tick < 200; tick++ { // 200 × 1 ms
		m.Accumulate(steadyVec(10), 1)
	}
	got := m.ReadInterval(200)
	for i, v := range got {
		if math.Abs(v-2000) > 1e-9 {
			t.Errorf("event %d: %v, want 2000", i+1, v)
		}
	}
}

func TestMuxPhaseChangeError(t *testing.T) {
	// A burst confined to one 20 ms window is over- or under-counted
	// depending on which group was live — the multiplexing error the
	// paper describes for rapidly phase-changing programs.
	m := &Mux{}
	for tick := 0; tick < 200; tick++ {
		inc := steadyVec(0)
		if tick < 20 { // burst only in the first window (group 0 live)
			inc = steadyVec(100)
		}
		m.Accumulate(inc, 1)
	}
	got := m.ReadInterval(200)
	// True count is 2000 per event. Group 0 saw the burst and
	// extrapolates ×2 → 4000; group 1 never saw it → 0.
	e1 := got.Get(arch.RetiredUOP)          // group 0
	e10 := got.Get(arch.CPUClocksNotHalted) // group 1
	if math.Abs(e1-4000) > 1e-9 {
		t.Errorf("group-0 event = %v, want 4000 (over-extrapolated burst)", e1)
	}
	if e10 != 0 {
		t.Errorf("group-1 event = %v, want 0 (missed burst)", e10)
	}
}

func TestMuxDisabledIsOracle(t *testing.T) {
	m := &Mux{}
	m.Disabled = true
	for tick := 0; tick < 200; tick++ {
		inc := steadyVec(0)
		if tick < 20 {
			inc = steadyVec(100)
		}
		m.Accumulate(inc, 1)
	}
	got := m.ReadInterval(200)
	for i, v := range got {
		if math.Abs(v-2000) > 1e-9 {
			t.Errorf("event %d: %v, want exact 2000", i+1, v)
		}
	}
}

func TestMuxReadResets(t *testing.T) {
	m := &Mux{}
	for tick := 0; tick < 40; tick++ {
		m.Accumulate(steadyVec(5), 1)
	}
	m.ReadInterval(40)
	got := m.ReadInterval(40)
	for i, v := range got {
		if v != 0 {
			t.Errorf("event %d: %v after double read", i+1, v)
		}
	}
}

func TestMuxRotationContinuesAcrossReads(t *testing.T) {
	// The 20 ms rotation clock is not reset by reads; a read in the
	// middle of a window must not bias the next interval.
	m := &Mux{}
	for tick := 0; tick < 30; tick++ {
		m.Accumulate(steadyVec(1), 1)
	}
	m.ReadInterval(30)
	// Now 10 ms into the group-1 window. Run a full balanced interval.
	for tick := 0; tick < 200; tick++ {
		m.Accumulate(steadyVec(1), 1)
	}
	got := m.ReadInterval(200)
	for i, v := range got {
		if math.Abs(v-200) > 1e-9 {
			t.Errorf("event %d: %v, want 200", i+1, v)
		}
	}
}

func TestMuxZeroLiveTime(t *testing.T) {
	m := &Mux{}
	got := m.ReadInterval(200) // nothing accumulated
	for i, v := range got {
		if v != 0 {
			t.Errorf("event %d: %v on empty interval", i+1, v)
		}
	}
}

func TestCounterFileProgramReadWrite(t *testing.T) {
	cf := NewCounterFile()
	if err := cf.Program(0, arch.Info(arch.RetiredInstructions).Code); err != nil {
		t.Fatal(err)
	}
	if err := cf.Program(-1, 0); err == nil || err.Error() != "pmc: counter slot -1 out of range" {
		t.Errorf("Program(-1) = %v, want the slot range error", err)
	}
	if err := cf.Program(CountersPerCore, 0); err == nil {
		t.Error("expected range error")
	}
	if _, err := cf.Read(9); err == nil {
		t.Error("expected range error")
	}
	if err := cf.Write(9, 0); err == nil {
		t.Error("expected range error")
	}

	var inc arch.EventVec
	inc.Set(arch.RetiredInstructions, 1234)
	cf.Accumulate(&inc)
	v, err := cf.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("count = %d", v)
	}
	// Unprogrammed slots stay zero.
	if v, _ := cf.Read(1); v != 0 {
		t.Errorf("unprogrammed slot = %d", v)
	}
	// Writing resets.
	if err := cf.Write(0, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := cf.Read(0); v != 0 {
		t.Errorf("after write = %d", v)
	}
}

func TestCounterFileWraps48Bits(t *testing.T) {
	cf := NewCounterFile()
	if err := cf.Program(2, arch.Info(arch.RetiredUOP).Code); err != nil {
		t.Fatal(err)
	}
	if err := cf.Write(2, (1<<48)-1); err != nil {
		t.Fatal(err)
	}
	var inc arch.EventVec
	inc.Set(arch.RetiredUOP, 2)
	cf.Accumulate(&inc)
	v, _ := cf.Read(2)
	if v != 1 {
		t.Errorf("wrapped count = %d, want 1", v)
	}
}

func TestMuxRelativeErrorBoundedForSlowPhases(t *testing.T) {
	// Phases slower than the window produce modest error; this guards
	// the extrapolation arithmetic (liveMS bookkeeping) against drift.
	m := &Mux{}
	var truth float64
	for tick := 0; tick < 1000; tick++ {
		level := 10.0
		if (tick/200)%2 == 1 { // 200 ms phases
			level = 20.0
		}
		m.Accumulate(steadyVec(level), 1)
		truth += level
	}
	got := m.ReadInterval(1000)
	for i, v := range got {
		rel := math.Abs(v-truth) / truth
		if rel > 0.05 {
			t.Errorf("event %d: relative error %v too large for slow phases", i+1, rel)
		}
	}
}

// TestProgramResolvesEveryCode checks the code→event table against a
// scan of Table I for every 16-bit event-select code: a Table I code
// selects its event, any other code (the disabled-slot 0xFFFF included)
// selects nothing.
func TestProgramResolvesEveryCode(t *testing.T) {
	cf := NewCounterFile()
	for code := 0; code <= 0xFFFF; code++ {
		want := -1
		for _, e := range arch.Events {
			if int(e.Code) == code {
				want = int(e.ID) - 1
			}
		}
		cf.counts[3] = 99
		if err := cf.Program(3, uint16(code)); err != nil {
			t.Fatal(err)
		}
		if cf.event[3] != want || cf.counts[3] != 0 {
			t.Fatalf("code %#x: slot counts event index %d from %d, want %d from 0", code, cf.event[3], cf.counts[3], want)
		}
	}
}
