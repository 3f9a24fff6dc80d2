// Package perfcheck is an analyzer fixture for the compiler-diagnostics
// budgets. Each seeded regression is one only the compiler decides: heap
// escapes on hot roots (an address-taken local, and the escaping form of
// every allocation the hotpath analyzer leaves to escape analysis), a
// function whose body outgrew the inliner's cost budget, and a loop
// whose bounds check the prove pass cannot eliminate because the bound
// is a free parameter. The want expectations quote the verbatim compiler
// messages perfcheck embeds in its findings.
package perfcheck

// escapeRoot returns the address of a local, so the compiler moves v to
// the heap. Syntactically this allocates nothing; the AST hotpath
// analyzer passes it, and only the compiler's verdict fails it.
//
//ppep:hotpath
func escapeRoot(n int) *int {
	v := n + 1 // want "escape analysis: v escapes to heap \\(in perfcheck.escapeRoot\\)" "escape analysis: moved to heap: v \\(in perfcheck.escapeRoot\\)"
	return &v
}

// escapeAllowed seeds the same regression behind a suppression: the
// //ppep:allow perfcheck covers the compiler's position, so no finding
// survives and the directive counts as used (an unused one would be its
// own finding).
//
//ppep:hotpath
func escapeAllowed(n int) *int {
	v := n + 2 //ppep:allow perfcheck fixture: sanctioned escape, returns a handle created once
	return &v
}

type point struct{ x, y float64 }

var (
	intSink   *int
	sliceSink []float64
	mapSink   map[int]float64
	anySink   any
	argsSink  []any
	fnSink    func() int
)

func keep(v any)        { anySink = v }
func keepAll(vs ...any) { argsSink = vs }

// escapeForms seeds, one per line, the escaping form of each allocation
// the hotpath analyzer leaves to escape analysis; the compiler's verdict
// is the finding. (The hotpath fixture keeps the non-escaping forms,
// which are no finding at all.)
//
//ppep:hotpath
func escapeForms(n int, x float64) *point {
	s := make([]float64, n) // want "escape analysis: make\\(\\[\\]float64, n\\) escapes to heap \\(in perfcheck.escapeForms\\)"
	s[0] = x
	intSink = new(int)               // want "escape analysis: new\\(int\\) escapes to heap"
	sliceSink = []float64{x}         // want "escape analysis: \\[\\]float64\\{\\.\\.\\.\\} escapes to heap"
	mapSink = map[int]float64{n: x}  // want "escape analysis: map\\[int\\]float64\\{\\.\\.\\.\\} escapes to heap"
	anySink = x                      // want "escape analysis: x escapes to heap"
	keep(n)                          // want "escape analysis: n escapes to heap"
	keepAll(n, x)                    // want "escape analysis: \\.\\.\\. argument escapes to heap" "escape analysis: n escapes to heap" "escape analysis: x escapes to heap"
	fnSink = func() int { return n } // want "escape analysis: func literal escapes to heap"
	return &point{x, x}              // want "escape analysis: &point\\{\\.\\.\\.\\} escapes to heap"
}

// heavy is annotated //ppep:inline but its body costs more than the
// inliner's budget, so the compiler refuses — the seeded inline-cost
// regression.
//
//ppep:inline
func heavy(a, b, c, d float64) float64 { // want "//ppep:inline function is not inlined; compiler says: cannot inline heavy: function too complex: cost \\d+ exceeds budget \\d+"
	x := a*b + c*d
	for i := 0; i < 8; i++ {
		x = x*a + b
		x = x/c + d
		x = x*x - a*b
		x = x + a - b + c - d
		x = x * 1.000001
	}
	if x > 0 {
		x = -x
	}
	for i := 0; i < 4; i++ {
		x += a * b
		x -= c * d
		x *= 1.5
		x /= 2.5
	}
	return x
}

// light is comfortably under the budget: the positive verdict satisfies
// the annotation and produces no finding.
//
//ppep:inline
func light(a, b float64) float64 {
	return a*b + a/b
}

// sweep's loop bound is a free parameter, so the prove pass cannot
// discharge the s[i] check — the seeded bounds-check regression.
func sweep(s []int, n int) {
	//ppep:nobc
	for i := 0; i < n; i++ {
		s[i]++ // want "residual bounds check in //ppep:nobc range \\(for loop\\): compiler reports \"Found IsInBounds\""
	}
}

// sweepOK ranges over the slice itself: the check is eliminated and the
// //ppep:nobc budget holds.
func sweepOK(s []int) {
	//ppep:nobc
	for i := range s {
		s[i]++
	}
}
