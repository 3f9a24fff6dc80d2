package stats

import (
	"errors"
	"fmt"
)

// LinearModel is a fitted linear regression y ≈ Σ wᵢ·xᵢ (+ intercept when
// fitted with one).
type LinearModel struct {
	Weights   []float64
	Intercept float64 // zero when fitted without an intercept
}

// Predict evaluates the model at feature vector x.
func (m *LinearModel) Predict(x []float64) float64 {
	y := m.Intercept
	for i, w := range m.Weights {
		y += w * x[i]
	}
	return y
}

// OLS fits y ≈ X·w by ordinary least squares (no intercept; the paper's
// dynamic power model Eq. 3 has none — zero activity means zero dynamic
// power). X is a slice of feature rows, all the same length. A tiny ridge
// term stabilizes the normal equations when features are nearly collinear.
func OLS(x [][]float64, y []float64) (*LinearModel, error) {
	return olsRidge(x, y, 1e-9, false)
}

// OLSIntercept fits y ≈ X·w + b by ordinary least squares with an
// intercept term.
func OLSIntercept(x [][]float64, y []float64) (*LinearModel, error) {
	return olsRidge(x, y, 1e-9, true)
}

func olsRidge(x [][]float64, y []float64, lambda float64, intercept bool) (*LinearModel, error) {
	if len(x) == 0 {
		return nil, errors.New("stats: no samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: %d feature rows but %d targets", len(x), len(y))
	}
	p := len(x[0])
	if intercept {
		p++
	}
	if len(x) < p {
		return nil, fmt.Errorf("stats: %d samples insufficient for %d parameters", len(x), p)
	}

	// Normal equations: (XᵀX + λ·diag(meansq))·w = Xᵀy.
	xtx := make([]float64, p*p)
	xty := make([]float64, p)
	row := make([]float64, p)
	for s, feats := range x {
		if len(feats) != len(x[0]) {
			return nil, fmt.Errorf("stats: ragged feature row %d", s)
		}
		copy(row, feats)
		if intercept {
			row[p-1] = 1
		}
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[s]
			for j := i; j < p; j++ {
				xtx[i*p+j] += row[i] * row[j]
			}
		}
	}
	n := float64(len(x))
	for i := 0; i < p; i++ {
		// Mirror the upper triangle and add the scaled ridge term.
		xtx[i*p+i] += lambda * (xtx[i*p+i]/n + 1e-12) * n
		for j := i + 1; j < p; j++ {
			xtx[j*p+i] = xtx[i*p+j]
		}
	}
	w, err := SolveSPD(xtx, xty)
	if err != nil {
		// Fall back to the pivoting solver for semi-definite systems.
		w, err = Solve(xtx, xty)
		if err != nil {
			return nil, err
		}
	}
	m := &LinearModel{}
	if intercept {
		m.Weights = w[:p-1]
		m.Intercept = w[p-1]
	} else {
		m.Weights = w
	}
	return m, nil
}

// NNLS fits y ≈ X·w subject to w ≥ 0 using projected coordinate descent on
// the normal equations. Physical power weights cannot be negative; the
// paper's regression benefits from the same constraint on noisy data.
func NNLS(x [][]float64, y []float64, iters int) (*LinearModel, error) {
	if len(x) == 0 {
		return nil, errors.New("stats: no samples")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: %d feature rows but %d targets", len(x), len(y))
	}
	p := len(x[0])
	xtx := make([]float64, p*p)
	xty := make([]float64, p)
	for s, feats := range x {
		for i := 0; i < p; i++ {
			xty[i] += feats[i] * y[s]
			for j := 0; j < p; j++ {
				xtx[i*p+j] += feats[i] * feats[j]
			}
		}
	}
	// A small relative ridge keeps nearly-collinear features (common in
	// hardware-event regressions, where many rates track IPS) from
	// producing wild offsetting weights on small training folds.
	for i := 0; i < p; i++ {
		xtx[i*p+i] *= 1 + 1e-4
	}
	w := make([]float64, p)
	if iters <= 0 {
		iters = 20000
	}
	for it := 0; it < iters; it++ {
		maxRel := 0.0
		for i := 0; i < p; i++ {
			d := xtx[i*p+i]
			if d <= 0 {
				continue
			}
			g := xty[i]
			for j := 0; j < p; j++ {
				if j != i {
					g -= xtx[i*p+j] * w[j]
				}
			}
			next := g / d
			if next < 0 {
				next = 0
			}
			delta := next - w[i]
			if delta < 0 {
				delta = -delta
			}
			// Relative convergence: weights span orders of magnitude
			// (nJ-scale power coefficients), so absolute thresholds
			// stall short of the optimum.
			if ref := next + w[i]; ref > 0 {
				if rel := delta / ref; rel > maxRel {
					maxRel = rel
				}
			}
			w[i] = next
		}
		if maxRel < 1e-12 {
			break
		}
	}
	return &LinearModel{Weights: w}, nil
}
