package daemon

import "testing"

func TestRingKeepAll(t *testing.T) {
	r := NewRing[int](0)
	for i := 1; i <= 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("len %d, want 100 (unbounded)", r.Len())
	}
	if r.At(0) != 1 || r.At(99) != 100 {
		t.Errorf("order broken: first %d last %d", r.At(0), r.At(99))
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRing[int](4)
	if _, ok := r.Last(); ok {
		t.Error("empty ring reported a last element")
	}
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	if r.Len() != 3 {
		t.Fatalf("len %d before wrap, want 3", r.Len())
	}
	for i := 4; i <= 10; i++ {
		r.Push(i)
	}
	if r.Len() != 4 {
		t.Fatalf("len %d after wrap, want the bound 4", r.Len())
	}
	want := []int{7, 8, 9, 10}
	for i, w := range want {
		if r.At(i) != w {
			t.Errorf("At(%d) = %d, want %d", i, r.At(i), w)
		}
	}
	if last, ok := r.Last(); !ok || last != 10 {
		t.Errorf("Last = %d/%v, want 10/true", last, ok)
	}
	snap := r.Snapshot()
	r.Push(11)
	if snap[0] != 7 || len(snap) != 4 {
		t.Errorf("snapshot not isolated from later pushes: %v", snap)
	}
}
