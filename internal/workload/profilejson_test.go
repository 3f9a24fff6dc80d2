package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// encodeProfile writes a benchmark in the on-disk profile form that
// LoadProfile reads.
func encodeProfile(b *Benchmark) ([]byte, error) {
	out := profileJSON{
		Name:         b.Name,
		Suite:        b.Suite,
		Class:        b.Class.String(),
		FP:           b.FP,
		Instructions: b.Instructions,
		Loops:        b.Loops,
		FreqSens:     append([]float64(nil), b.FreqSens[:]...),
	}
	for _, p := range b.Phases {
		out.Phases = append(out.Phases, phaseJSON{
			Name: p.Name, Weight: p.Weight, BaseCPI: p.BaseCPI,
			L3MissRatio: p.L3MissRatio, MLP: p.MLP, Noise: p.Noise,
			Uops: p.PerInst.Uops, FPU: p.PerInst.FPU,
			ICFetch: p.PerInst.ICFetch, DCAccess: p.PerInst.DCAccess,
			L2Req: p.PerInst.L2Req, Branch: p.PerInst.Branch,
			Mispred: p.PerInst.Mispred, L2Miss: p.PerInst.L2Miss,
			Prefetch: p.PerInst.Prefetch, TLBWalk: p.PerInst.TLBWalk,
		})
	}
	return json.Marshal(out)
}

func TestProfileJSONRoundTrip(t *testing.T) {
	orig := SPECByNumber("433")
	body, err := encodeProfile(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Class != orig.Class || got.FP != orig.FP {
		t.Errorf("identity fields differ: %+v", got)
	}
	if got.Instructions != orig.Instructions || got.Loops != orig.Loops {
		t.Error("length fields differ")
	}
	if got.FreqSens != orig.FreqSens {
		t.Error("freq sensitivities differ")
	}
	if len(got.Phases) != len(orig.Phases) {
		t.Fatalf("phase count %d vs %d", len(got.Phases), len(orig.Phases))
	}
	for i := range got.Phases {
		if got.Phases[i] != orig.Phases[i] {
			t.Errorf("phase %d differs:\n got %+v\nwant %+v", i, got.Phases[i], orig.Phases[i])
		}
	}
}

func TestLoadProfileValidates(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"unknown field":  `{"name":"x","instructions":1,"bogus":true,"phases":[]}`,
		"bad class":      `{"name":"x","class":"turbo","instructions":1,"phases":[]}`,
		"no phases":      `{"name":"x","instructions":1,"phases":[]}`,
		"invalid phase":  `{"name":"x","instructions":1,"phases":[{"weight":1,"base_cpi":0.1,"mlp":1,"uops_per_inst":1.2}]}`,
		"too many sens":  `{"name":"x","instructions":1,"freq_sens":[0,0,0,0,0,0,0,0,0],"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2}]}`,
		"sens of 1":      `{"name":"x","instructions":1,"freq_sens":[0,0,0,-1],"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2}]}`,
		"sens of 40":     `{"name":"x","instructions":1,"freq_sens":[40,0,0,0,0,0,0,0],"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2}]}`,
		"noise 800":      `{"name":"x","instructions":1,"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2,"noise":800}]}`,
		"negative noise": `{"name":"x","instructions":1,"phases":[{"weight":1,"base_cpi":0.5,"mlp":1,"uops_per_inst":1.2,"noise":-0.1}]}`,
	}
	for name, body := range cases {
		if _, err := LoadProfile(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadProfileDefaults(t *testing.T) {
	body := `{
		"name": "mykernel",
		"instructions": 5e9,
		"phases": [
			{"weight": 1, "base_cpi": 0.7, "mlp": 2,
			 "uops_per_inst": 1.4, "ic_per_inst": 0.2, "dc_per_inst": 0.4,
			 "l2req_per_inst": 0.03, "branch_per_inst": 0.1,
			 "mispred_per_inst": 0.002, "l2miss_per_inst": 0.01,
			 "l3_miss_ratio": 0.5}
		]
	}`
	b, err := LoadProfile(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if b.Suite != "custom" {
		t.Errorf("suite default %q", b.Suite)
	}
	if b.Class != Balanced {
		t.Errorf("class default %v", b.Class)
	}
	if b.Phases[0].Name == "" {
		t.Error("phase name not defaulted")
	}
	// A loaded profile runs on the simulator like any built-in one.
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}
