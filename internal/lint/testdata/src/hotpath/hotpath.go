// Package hotpath is an analyzer fixture: every construct the hotpath
// analyzer must flag, plus the shapes it must accept (plain value
// literals, indexed writes, allow-suppressed amortized calls). The
// allocation forms the compiler's escape analysis decides — make/new,
// slice literals, &T{...}, closures, interface boxing, variadic argument
// slices — appear here in non-escaping form with no want: they are
// perfcheck's, and the escaping forms are seeded in its fixture.
package hotpath

import (
	"fmt"
	"sync"
	"time"
)

var sink []float64
var mu sync.Mutex

type point struct{ x, y float64 }

// Tick is the fixture hot loop.
//
//ppep:hotpath
func Tick(xs []float64, name string) float64 {
	total := 0.0
	for i, x := range xs {
		xs[i] = x // indexed write: fine
		total += x
	}
	pt := point{total, total} // plain value literal: fine
	total += pt.x

	sink = append(sink, total) // want "append allocates"
	s := make([]float64, 4)    // does not escape: perfcheck's verdict, not hotpath's
	s[0] = total
	lit := []float64{total} // does not escape
	_ = lit
	p := &point{total, total} // does not escape
	_ = p
	label := name + "!" // want "string concatenation allocates"
	_ = label
	bs := []byte(name) // want "conversion to \[\]byte allocates"
	_ = bs
	f := func() float64 { return 0 } // does not escape
	total += f()                     // want "indirect call"
	fmt.Println(total)               // want "formats and allocates"
	t := time.Now()                  // want "time.Now on the hot path"
	_ = t
	mu.Lock()         // want "takes a lock"
	defer mu.Unlock() // want "defer on the hot path" "takes a lock"

	go helper(xs) // want "go statement on the hot path"

	helper(xs)               // transitive walk: helper's own findings are reported
	box(total)               // boxed argument does not escape
	vararg(1, 2)             // variadic slice does not escape
	total += amortized(name) //ppep:allow hotpath memoized; runs once per phase transition
	return total
}

func helper(xs []float64) {
	extra := new(float64) // does not escape
	_ = extra
	sink = append(sink, xs...) // want "append allocates \\(in hotpath.helper, reached from hot-path root hotpath.Tick\\)"
}

func box(v any) {}

func vararg(vs ...int) {}

// amortized would be flagged (Sprintf), but the allow at its only hot
// call site stops the traversal before reaching it.
func amortized(name string) float64 {
	return float64(len(fmt.Sprintf("%s-suffix", name)))
}

// Cold is not annotated, so nothing in it is checked.
func Cold() []float64 {
	return make([]float64, 128)
}
