package fxsim

import (
	"fmt"

	"ppep/internal/arch"
	"ppep/internal/trace"
	"ppep/internal/uarch"
	"ppep/internal/units"
	"ppep/internal/workload"
)

// Placement decides which hardware cores a run's threads occupy.
type Placement int

const (
	// PlaceScatter spreads threads one-per-CU first (the paper pins one
	// benchmark instance per compute unit in Section V).
	PlaceScatter Placement = iota
	// PlaceCompact fills CUs fully before moving to the next.
	PlaceCompact
)

// PlaceRun binds every thread of the run onto the chip. It returns the
// chosen core indices in binding order.
func (c *Chip) PlaceRun(r workload.Run, p Placement, restart bool) ([]int, error) {
	order := c.coreOrder(p)
	need := r.TotalThreads()
	if need > len(order) {
		return nil, fmt.Errorf("fxsim: run %s needs %d threads, chip has %d cores", r.Name, need, len(order))
	}
	var used []int
	next := 0
	for _, m := range r.Members {
		for t := 0; t < m.Threads; t++ {
			core := order[next]
			next++
			if err := c.Bind(core, m.Bench, restart); err != nil {
				return nil, err
			}
			used = append(used, core)
		}
	}
	return used, nil
}

// coreOrder returns core indices in placement order.
func (c *Chip) coreOrder(p Placement) []int {
	n := len(c.threads)
	if p == PlaceCompact {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	// Scatter: first core of each CU, then second, ...
	var order []int
	per := c.cfg.Topology.CoresPerCU
	for lane := 0; lane < per; lane++ {
		for cu := 0; cu < c.cfg.Topology.NumCUs; cu++ {
			order = append(order, cu*per+lane)
		}
	}
	return order
}

// Controller receives each closed interval and may adjust the chip's
// P-states before the next one. The dvfs package's governors and cappers
// plug in here; the daemon steers its chip through daemon.Policy.
type Controller interface {
	Decide(chip *Chip, iv trace.Interval)
}

// RunOpts configures one measured run.
type RunOpts struct {
	// VF is the initial P-state for every CU.
	VF arch.VFState
	// MaxTimeS bounds the run's simulated duration (0 = until all
	// threads finish; required to be >0 when Restart is set).
	MaxTimeS float64
	// Restart re-binds threads when they finish, making the run
	// time-bounded rather than work-bounded.
	Restart bool
	// Placement for the run's threads.
	Placement Placement
	// WarmTempK starts the package at the given temperature (0 = start
	// from the thermal model's current state).
	WarmTempK units.Kelvin
	// Controller, when non-nil, is consulted after every interval.
	Controller Controller
}

// Collect runs the workload to completion (or MaxTimeS) and returns the
// full measurement trace at the paper's 200 ms interval cadence.
func (c *Chip) Collect(r workload.Run, opts RunOpts) (*trace.Trace, error) {
	if opts.Restart && opts.MaxTimeS <= 0 {
		return nil, fmt.Errorf("fxsim: Restart requires MaxTimeS")
	}
	if opts.VF != 0 {
		if err := c.SetAllPStates(opts.VF); err != nil {
			return nil, err
		}
	}
	if opts.WarmTempK > 0 {
		c.SetTempK(opts.WarmTempK)
	}
	c.UnbindAll()
	// Align interval boundaries with run start.
	c.ReadIntervalInto(new(trace.Interval))
	used, err := c.PlaceRun(r, opts.Placement, opts.Restart)
	if err != nil {
		return nil, err
	}
	// Every thread crosses all its jitter segments, so each member's
	// threads share its knot tables, resolved here, off the tick loop.
	next := 0
	for _, m := range r.Members {
		knots := uarch.Knots(m.Bench)
		for _, core := range used[next : next+m.Threads] {
			c.threads[core].UseKnots(knots)
		}
		next += m.Threads
	}

	tr := &trace.Trace{Run: r.Name, Suite: r.Suite, Platform: c.cfg.Topology.Name}
	ticksPerInterval := arch.DecisionIntervalMS
	start := c.timeS
	for {
		c.TickN(ticksPerInterval)
		var iv trace.Interval
		c.ReadIntervalInto(&iv)
		tr.Intervals = append(tr.Intervals, iv)
		if opts.Controller != nil {
			opts.Controller.Decide(c, iv)
		}
		if !opts.Restart && c.AllIdle() {
			break
		}
		if opts.MaxTimeS > 0 && c.timeS-start >= opts.MaxTimeS {
			break
		}
	}
	c.UnbindAll()
	return tr, nil
}

// HeatCool performs the Figure 1 experiment: heat the chip under full
// load for heatS seconds at the top VF state, then idle for coolS seconds
// at the given state, returning only the cooling-phase trace (idle power
// vs temperature at that state). It is Heat followed by Cool.
func (c *Chip) HeatCool(vf arch.VFState, heatS, coolS float64) (*trace.Trace, error) {
	if err := c.Heat(heatS); err != nil {
		return nil, err
	}
	return c.Cool(vf, coolS)
}

// Heat is the heating phase of the Figure 1 experiment: every core runs a
// steady load at the top VF state for heatS seconds, then the chip is
// unloaded and the heating interval discarded. The phase does not depend
// on the state the chip later cools at, so one heated chip can be forked
// (Fork) once per cooling state.
func (c *Chip) Heat(heatS float64) error {
	if err := c.SetAllPStates(c.cfg.Topology.VF.Top()); err != nil {
		return err
	}
	c.UnbindAll()
	heater := workload.Run{Name: "heater", Suite: "micro"}
	heater.Members = append(heater.Members, workload.Member{
		Bench: workload.BenchA(), Threads: c.cfg.Topology.NumCores(),
	})
	if _, err := c.PlaceRun(heater, PlaceCompact, true); err != nil {
		return err
	}
	// The float accumulation decides the tick count (kept for bit-exact
	// compatibility with recorded traces); one TickN call runs them.
	heatTicks := 0
	for t := 0.0; t < heatS; t += TickS {
		heatTicks++
	}
	c.TickN(heatTicks)
	c.UnbindAll()
	c.ReadIntervalInto(new(trace.Interval)) // discard the heating interval
	return nil
}

// Cool is the cooling phase of the Figure 1 experiment: the chip idles
// at the given state for coolS seconds, and every full 200 ms interval of
// it is returned.
func (c *Chip) Cool(vf arch.VFState, coolS float64) (*trace.Trace, error) {
	if err := c.SetAllPStates(vf); err != nil {
		return nil, err
	}
	tr := &trace.Trace{Run: fmt.Sprintf("heatcool-%v", vf), Suite: "micro", Platform: c.cfg.Topology.Name}
	ticks := int(coolS / TickS)
	for done := 0; done < ticks; {
		n := arch.DecisionIntervalMS
		if rem := ticks - done; rem < n {
			n = rem
		}
		c.TickN(n)
		done += n
		if n == arch.DecisionIntervalMS {
			tr.Intervals = append(tr.Intervals, trace.Interval{})
			c.ReadIntervalInto(&tr.Intervals[len(tr.Intervals)-1])
		}
	}
	return tr, nil
}
