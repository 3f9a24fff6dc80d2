package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveIdentity(t *testing.T) {
	a := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	b := []float64{3, -1, 7}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almost(x[i], b[i], 1e-12) {
			t.Errorf("x[%d] = %v", i, x[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := []float64{2, 1, 1, 3}
	b := []float64{5, 10}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-12) || !almost(x[1], 3, 1e-12) {
		t.Errorf("got %v", x)
	}
}

func TestSolveNeedsPivot(t *testing.T) {
	// Leading zero forces a row swap.
	a := []float64{0, 1, 1, 0}
	b := []float64{2, 3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 3, 1e-12) || !almost(x[1], 2, 1e-12) {
		t.Errorf("got %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("expected singular error")
	}
}

func TestSolveSizeMismatch(t *testing.T) {
	if _, err := Solve([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("expected size error")
	}
	if _, err := SolveSPD([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("expected size error")
	}
}

func TestSolveSPDMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		// Random SPD matrix: A = MᵀM + I.
		m := make([]float64, n*n)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a[i*n+j] += m[k*n+i] * m[k*n+j]
				}
			}
			a[i*n+i] += 1
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := SolveSPD(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if !almost(x1[i], x2[i], 1e-8) {
				t.Fatalf("trial %d: x1[%d]=%v x2[%d]=%v", trial, i, x1[i], i, x2[i])
			}
		}
	}
}

func TestSolveSPDNotPositive(t *testing.T) {
	a := []float64{-1, 0, 0, -1}
	if _, err := SolveSPD(a, []float64{1, 1}); err == nil {
		t.Error("expected error for negative-definite matrix")
	}
}

func TestOLSRecoversExactWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trueW := []float64{2.5, -1.0, 0.25}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		row := []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64()}
		y := 0.0
		for j, w := range trueW {
			y += w * row[j]
		}
		xs = append(xs, row)
		ys = append(ys, y)
	}
	m, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range trueW {
		if !almost(m.Weights[j], w, 1e-3) {
			t.Errorf("w[%d] = %v, want %v", j, m.Weights[j], w)
		}
	}
}

func TestOLSInterceptRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 100
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+42+rng.NormFloat64()*0.01)
	}
	m, err := OLSIntercept(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Weights[0], 3, 1e-2) {
		t.Errorf("slope %v", m.Weights[0])
	}
	if !almost(m.Intercept, 42, 0.1) {
		t.Errorf("intercept %v", m.Intercept)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("expected no-samples error")
	}
	if _, err := OLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := OLS([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected underdetermined error")
	}
	if _, err := OLS([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("expected ragged-row error")
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 10*x)
	}
	plain, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := olsRidge(xs, ys, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Weights[0] >= plain.Weights[0] {
		t.Errorf("ridge weight %v not shrunk below OLS %v", heavy.Weights[0], plain.Weights[0])
	}
}

func TestNNLSNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// True weights include a negative one; NNLS must clamp at zero.
	trueW := []float64{5, -3, 2}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.0
		for j, w := range trueW {
			y += w * row[j]
		}
		xs = append(xs, row)
		ys = append(ys, y)
	}
	m, err := NNLS(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range m.Weights {
		if w < 0 {
			t.Errorf("w[%d] = %v < 0", j, w)
		}
	}
}

func TestNNLSRecoversNonNegativeTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trueW := []float64{1.5, 0.5}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		row := []float64{rng.Float64(), rng.Float64()}
		ys = append(ys, trueW[0]*row[0]+trueW[1]*row[1])
		xs = append(xs, row)
	}
	m, err := NNLS(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range trueW {
		if !almost(m.Weights[j], w, 1e-3) {
			t.Errorf("w[%d] = %v, want %v", j, m.Weights[j], w)
		}
	}
}

func TestNNLSErrors(t *testing.T) {
	if _, err := NNLS(nil, nil, 0); err == nil {
		t.Error("expected no-samples error")
	}
	if _, err := NNLS([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestLinearModelPredict(t *testing.T) {
	m := &LinearModel{Weights: []float64{2, 3}, Intercept: 1}
	if got := m.Predict([]float64{10, 100}); got != 321 {
		t.Errorf("Predict = %v", got)
	}
}

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval(2) = %v", got)
	}
	if got := (Poly{}).Eval(5); got != 0 {
		t.Errorf("empty poly Eval = %v", got)
	}
	if (Poly{1, 2, 3}).Degree() != 2 || (Poly{}).Degree() != -1 {
		t.Error("Degree wrong")
	}
}

func TestFitPolyExact(t *testing.T) {
	// Fit y = 2 - x + 0.5x³ at many points.
	truth := Poly{2, -1, 0, 0.5}
	var xs, ys []float64
	for i := -10; i <= 10; i++ {
		x := float64(i) / 3
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := FitPoly(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if !almost(p[i], truth[i], 1e-6) {
			t.Errorf("c[%d] = %v, want %v", i, p[i], truth[i])
		}
	}
}

func TestFitPolyCubicThroughVFPoints(t *testing.T) {
	// Five voltage points, cubic fit — the idle model's exact use case.
	xs := []float64{0.888, 1.008, 1.128, 1.242, 1.320}
	ys := make([]float64, len(xs))
	truth := Poly{0.3, -0.5, 0.2, 1.1}
	for i, x := range xs {
		ys[i] = truth.Eval(x)
	}
	p, err := FitPoly(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if !almost(p.Eval(x), ys[i], 1e-5) {
			t.Errorf("fit misses point %d: %v vs %v", i, p.Eval(x), ys[i])
		}
	}
}

func TestSummarizeAbsErrors(t *testing.T) {
	s := SummarizeAbsErrors([]float64{0.1, 0.2, 0.3})
	if s.N != 3 || !almost(s.Mean, 0.2, 1e-12) {
		t.Errorf("summary %+v", s)
	}
	if !almost(s.SD, math.Sqrt(0.02/3), 1e-12) {
		t.Errorf("SD = %v", s.SD)
	}
	if !almost(s.Max, 0.3, 1e-12) {
		t.Errorf("Max = %v", s.Max)
	}
	z := SummarizeAbsErrors(nil)
	if z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary %+v", z)
	}
	// Negative inputs are folded to absolute values.
	s = SummarizeAbsErrors([]float64{-0.4})
	if !almost(s.Mean, 0.4, 1e-12) {
		t.Errorf("negative handling: %+v", s)
	}
}

func TestAbsPctErr(t *testing.T) {
	if !almost(AbsPctErr(110, 100), 0.1, 1e-12) {
		t.Error("over-estimate")
	}
	if !almost(AbsPctErr(90, 100), 0.1, 1e-12) {
		t.Error("under-estimate")
	}
	if AbsPctErr(5, 0) != 0 {
		t.Error("zero measurement should yield 0")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var r Running
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		xs = append(xs, x)
		r.Add(x)
	}
	if r.N() != 1000 {
		t.Fatalf("N = %d", r.N())
	}
	if !almost(r.Mean(), Mean(xs), 1e-9) {
		t.Errorf("mean %v vs %v", r.Mean(), Mean(xs))
	}
	var sq float64
	for _, x := range xs {
		d := x - Mean(xs)
		sq += d * d
	}
	if !almost(r.Var(), sq/1000, 1e-9) {
		t.Errorf("var %v vs %v", r.Var(), sq/1000)
	}
	if r.Min() > r.Mean() || r.Max() < r.Mean() {
		t.Error("min/max bracket violated")
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.SD() != 0 || r.N() != 0 {
		t.Error("zero value should report zeros")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestKFoldPartition(t *testing.T) {
	const n, k = 152, 4
	folds := KFold(n, k, 1)
	if len(folds) != k {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f.Test)+len(f.Train) != n {
			t.Errorf("fold covers %d items", len(f.Test)+len(f.Train))
		}
		for _, i := range f.Test {
			seen[i]++
		}
		// Test sizes differ by at most one: 152/4 = 38 exactly here.
		if len(f.Test) != n/k {
			t.Errorf("test fold size %d", len(f.Test))
		}
		// No overlap between train and test.
		inTest := make(map[int]bool, len(f.Test))
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Errorf("index %d in both train and test", i)
			}
		}
	}
	// Every item appears in exactly one test fold.
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("item %d appears in %d test folds", i, seen[i])
		}
	}
}

func TestKFoldDeterministic(t *testing.T) {
	a := KFold(50, 4, 9)
	b := KFold(50, 4, 9)
	for f := range a {
		for i := range a[f].Test {
			if a[f].Test[i] != b[f].Test[i] {
				t.Fatal("same seed produced different folds")
			}
		}
	}
}

func TestKFoldDegenerate(t *testing.T) {
	folds := KFold(3, 10, 1) // k clamped to n
	if len(folds) != 3 {
		t.Errorf("folds = %d", len(folds))
	}
	folds = KFold(10, 1, 1) // k clamped up to 2
	if len(folds) != 2 {
		t.Errorf("folds = %d", len(folds))
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.3) * (x - 2.3) }
	x := GoldenSection(f, 0, 10, 80)
	if !almost(x, 2.3, 1e-6) {
		t.Errorf("min at %v", x)
	}
}

func TestGoldenSectionAlphaShape(t *testing.T) {
	// Minimizing error of a (V/V5)^α scaling fit, the real use case.
	v5 := 1.32
	truth := 2.4
	f := func(alpha float64) float64 {
		sum := 0.0
		for _, v := range []float64{0.888, 1.008, 1.128, 1.242} {
			d := math.Pow(v/v5, alpha) - math.Pow(v/v5, truth)
			sum += d * d
		}
		return sum
	}
	x := GoldenSection(f, 1, 4, 80)
	if !almost(x, truth, 1e-5) {
		t.Errorf("alpha = %v, want %v", x, truth)
	}
}

func TestOLSResidualOrthogonality(t *testing.T) {
	// Property: OLS residuals are orthogonal to every feature column.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 40, 3
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			row := make([]float64, p)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			xs[i] = row
			ys[i] = rng.NormFloat64()
		}
		m, err := OLS(xs, ys)
		if err != nil {
			return true // skip pathological draws
		}
		for j := 0; j < p; j++ {
			dot := 0.0
			for i := range xs {
				dot += xs[i][j] * (ys[i] - m.Predict(xs[i]))
			}
			if math.Abs(dot) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFitPolyErrors(t *testing.T) {
	if _, err := FitPoly(nil, nil, 2); err == nil {
		t.Error("expected error fitting empty data")
	}
	if _, err := FitPoly([]float64{1}, []float64{1}, 3); err == nil {
		t.Error("expected underdetermined error")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !almost(Pearson(xs, ys), 1, 1e-12) {
		t.Error("perfect positive correlation expected")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !almost(Pearson(xs, neg), -1, 1e-12) {
		t.Error("perfect negative correlation expected")
	}
	flat := []float64{3, 3, 3, 3, 3}
	if Pearson(xs, flat) != 0 {
		t.Error("degenerate series must give zero")
	}
	if Pearson(nil, nil) != 0 || Pearson(xs, xs[:2]) != 0 {
		t.Error("bad lengths must give zero")
	}
	// Uncorrelated noise stays near zero.
	rng := rand.New(rand.NewSource(31))
	var a, b []float64
	for i := 0; i < 5000; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
	}
	if r := Pearson(a, b); math.Abs(r) > 0.05 {
		t.Errorf("independent noise correlation %v", r)
	}
}
