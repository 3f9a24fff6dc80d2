package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the on-disk form of a benchmark profile, so adopters can
// describe their own workloads without recompiling. Field names mirror
// the Benchmark/Phase structs.
type profileJSON struct {
	Name         string      `json:"name"`
	Suite        string      `json:"suite,omitempty"`
	Class        string      `json:"class,omitempty"`
	FP           bool        `json:"fp,omitempty"`
	Instructions float64     `json:"instructions"`
	Loops        int         `json:"loops,omitempty"`
	FreqSens     []float64   `json:"freq_sens,omitempty"`
	Phases       []phaseJSON `json:"phases"`
}

type phaseJSON struct {
	Name        string  `json:"name,omitempty"`
	Weight      float64 `json:"weight"`
	BaseCPI     float64 `json:"base_cpi"`
	L3MissRatio float64 `json:"l3_miss_ratio"`
	MLP         float64 `json:"mlp"`
	Noise       float64 `json:"noise,omitempty"`

	Uops     float64 `json:"uops_per_inst"`
	FPU      float64 `json:"fpu_per_inst,omitempty"`
	ICFetch  float64 `json:"ic_per_inst"`
	DCAccess float64 `json:"dc_per_inst"`
	L2Req    float64 `json:"l2req_per_inst"`
	Branch   float64 `json:"branch_per_inst"`
	Mispred  float64 `json:"mispred_per_inst"`
	L2Miss   float64 `json:"l2miss_per_inst"`
	Prefetch float64 `json:"prefetch_per_inst,omitempty"`
	TLBWalk  float64 `json:"tlbwalk_per_inst,omitempty"`
}

var classNames = map[string]Class{
	"":          Balanced,
	"cpu-bound": CPUBound,
	"balanced":  Balanced,
	"mem-bound": MemBound,
}

// LoadProfile reads one benchmark profile from JSON and validates it.
func LoadProfile(r io.Reader) (*Benchmark, error) {
	var in profileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decode profile: %w", err)
	}
	cls, ok := classNames[in.Class]
	if !ok {
		return nil, fmt.Errorf("workload: unknown class %q", in.Class)
	}
	b := &Benchmark{
		Name:         in.Name,
		Suite:        in.Suite,
		Class:        cls,
		FP:           in.FP,
		Instructions: in.Instructions,
		Loops:        in.Loops,
	}
	if b.Suite == "" {
		b.Suite = "custom"
	}
	if len(in.FreqSens) > len(b.FreqSens) {
		return nil, fmt.Errorf("workload: %d freq_sens entries, max %d", len(in.FreqSens), len(b.FreqSens))
	}
	copy(b.FreqSens[:], in.FreqSens)
	for i, p := range in.Phases {
		name := p.Name
		if name == "" {
			name = phaseName(i)
		}
		b.Phases = append(b.Phases, Phase{
			Name:        name,
			Weight:      p.Weight,
			BaseCPI:     p.BaseCPI,
			L3MissRatio: p.L3MissRatio,
			MLP:         p.MLP,
			Noise:       p.Noise,
			PerInst: Rates{
				Uops: p.Uops, FPU: p.FPU, ICFetch: p.ICFetch,
				DCAccess: p.DCAccess, L2Req: p.L2Req, Branch: p.Branch,
				Mispred: p.Mispred, L2Miss: p.L2Miss,
				Prefetch: p.Prefetch, TLBWalk: p.TLBWalk,
			},
		})
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
