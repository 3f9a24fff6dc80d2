package experiments

import (
	"math"
	"sync"
	"testing"

	"ppep/internal/arch"
	"ppep/internal/core/pgidle"
	"ppep/internal/fxsim"
	"ppep/internal/trace"
	"ppep/internal/workload"
)

// goldenCampaignWant is the fingerprint of a small fixed-seed FX campaign,
// first recorded from the serial (pre-worker-pool) implementation and
// re-recorded with the fxsim goldens whenever the simulator's arithmetic
// changed (last at tracecodec.SchemaVersion 3). The campaign
// derives every chip's sensor seed from the (run, VF) identity, so the
// idle transients, benchmark collection, and power-gating sweeps must
// produce bit-identical results no matter how many workers execute them
// or in which order the phases' jobs are scheduled.
const goldenCampaignWant = uint64(0xe0ade44fd4c26757)

// campaignFingerprint folds the deterministic measurement artifacts of a
// campaign — idle traces, run traces, and PG sweep powers, all in a fixed
// iteration order — into one hash. Model coefficients are derived from
// these, so hashing the measurements pins the whole pipeline.
func campaignFingerprint(c *Campaign) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mixF := func(x float64) { mix(math.Float64bits(x)) }
	for _, vf := range c.Table.States() {
		if tr := c.Idle[vf]; tr != nil {
			mix(tr.Fingerprint())
		}
	}
	for _, rt := range c.Runs {
		mix(uint64(rt.VF))
		mix(rt.Trace.Fingerprint())
	}
	for _, vf := range c.Table.States() {
		s := c.PGSweeps[vf]
		for _, w := range s.PGOff {
			mixF(float64(w))
		}
		for _, w := range s.PGOn {
			mixF(float64(w))
		}
	}
	return h
}

// TestGoldenCampaignEquivalence runs a reduced fixed-seed campaign twice
// with different worker counts and checks both against the recorded
// serial-implementation fingerprint: the parallel phases must be
// bit-deterministic and schedule-independent.
func TestGoldenCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign fingerprint is a multi-second run")
	}
	for _, workers := range []int{1, 4} {
		c, err := NewFXCampaign(Options{Scale: 0.02, MaxRunsPerSuite: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := campaignFingerprint(c); got != goldenCampaignWant {
			t.Errorf("workers=%d: campaign fingerprint %#x, want %#x", workers, got, goldenCampaignWant)
		}
	}
}

// TestCollectIdleWorkerInvariance runs the idle phase alone with one
// worker per VF state and with one worker. With one per state, one cell
// heats the shared chip while the others wait for it, then every cell
// forks it at once, which the race detector checks. Both runs must match
// a fresh chip heated and cooled at each state under the cell's seed.
func TestCollectIdleWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("idle transients on both platforms")
	}
	const heatS, coolS = 40, 90 // idlePhase's durations
	for _, p := range []struct {
		platform, seedName string
		table              arch.VFTable
	}{
		{arch.FX8320.Name, "idle", arch.FX8320VFTable},
		{arch.PhenomII.Name, "phenom-idle", arch.PhenomIIVFTable},
	} {
		states := p.table.States()
		var runs []*Campaign
		for _, workers := range []int{len(states), 1} {
			c := &Campaign{Platform: p.platform, Table: p.table,
				Idle: map[arch.VFState]*trace.Trace{}, opts: Options{Workers: workers}}
			idle := c.idlePhase(p.seedName)
			if err := c.runPhases(idle.jobs, idle); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, c)
		}
		for _, vf := range states {
			cfg := runs[0].ChipConfig()
			cfg.SensorSeed = seedOf(p.seedName, vf)
			fresh, err := fxsim.New(cfg).HeatCool(vf, heatS, coolS)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Fingerprint()
			for _, c := range runs {
				if got := c.Idle[vf].Fingerprint(); got != want {
					t.Errorf("%s %v workers=%d: idle fingerprint %#x, fresh HeatCool %#x",
						p.platform, vf, c.opts.Workers, got, want)
				}
			}
		}
	}
}

// TestJobPairsShareNoWrites takes pairs of jobs from the campaign's job
// lists and starts each pair on two goroutines released by one barrier,
// first into a fresh trace cache and then again from it. Nothing orders
// the two bodies, so under -race a write they share is reported. The
// warm pass decodes and reports such a write every time; the cold pass
// simulates, and the race detector drops access history while a
// simulation ticks, so there it reports a write at the end of both
// bodies only now and then. The pairs are the first two jobs of the FX
// build's list (the idle cell that heats and the first collect cell)
// and the first two jobs of each phase, exploration included.
func TestJobPairsShareNoWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a dozen campaign cells")
	}
	runs := truncate(workload.SPECRuns(), 1)
	pairs := []struct {
		name string
		jobs func(c *Campaign) []func()
	}{
		{"build", func(c *Campaign) []func() {
			return buildJobs(c.idlePhase("idle"), c.collectPhase(runs), c.pgPhase(c.Table.States()))
		}},
		{"idle", func(c *Campaign) []func() { return c.idlePhase("idle").jobs }},
		{"collect", func(c *Campaign) []func() { return c.collectPhase(runs).jobs }},
		{"pg", func(c *Campaign) []func() { return c.pgPhase(c.Table.States()).jobs }},
		{"explore", func(c *Campaign) []func() { return c.explorePhase().jobs }},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, pass := range []string{"cold", "warm"} {
				c := &Campaign{Platform: arch.FX8320.Name, Table: arch.FX8320VFTable,
					ByName: map[string]map[arch.VFState]*trace.Trace{},
					Idle:   map[arch.VFState]*trace.Trace{}, PGSweeps: map[arch.VFState]pgidle.Sweep{},
					opts: Options{Scale: 0.01, CacheDir: dir}}
				if err := c.openCache(); err != nil {
					t.Fatal(err)
				}
				runConcurrently(p.jobs(c)[:2])
				c.cache.Flush()
				if st := c.cache.Stats(); pass == "warm" && (st.Hits != 2 || st.Misses != 0) {
					t.Errorf("warm pass: stats %+v, want 2 hits and no miss", st)
				}
			}
		})
	}
}

// runConcurrently starts every job on its own goroutine, releases them
// together, and keeps each goroutine alive until all jobs have
// returned: the race detector can lose the accesses of a goroutine that
// has exited, and with them a write the other body shares.
func runConcurrently(jobs []func()) {
	start, hold := make(chan struct{}), make(chan struct{})
	var returned, exited sync.WaitGroup
	returned.Add(len(jobs))
	exited.Add(len(jobs))
	for _, job := range jobs {
		go func() {
			defer exited.Done()
			<-start
			job()
			returned.Done()
			<-hold
		}()
	}
	close(start)
	returned.Wait()
	close(hold)
	exited.Wait()
}
