package main

import (
	"math"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	good := flags{nodes: 64, seconds: 2, minMticks: 0.05}
	if n, err := good.validate(); err != nil || n != 10 {
		t.Fatalf("good flags: %d intervals, %v; want 10, nil", n, err)
	}
	short := good
	short.seconds = 0.01
	if n, err := short.validate(); err != nil || n != 1 {
		t.Fatalf("-seconds 0.01: %d intervals, %v; want 1, nil", n, err)
	}

	cases := []struct {
		name string
		mut  func(*flags)
		want string // substring of the usage error
	}{
		{"zero nodes", func(f *flags) { f.nodes = 0 }, "-nodes"},
		{"zero seconds", func(f *flags) { f.seconds = 0 }, "-seconds"},
		{"negative seconds", func(f *flags) { f.seconds = -1 }, "-seconds"},
		{"NaN seconds", func(f *flags) { f.seconds = math.NaN() }, "-seconds"},
		{"infinite seconds", func(f *flags) { f.seconds = math.Inf(1) }, "-seconds"},
		{"seconds overflow the interval count", func(f *flags) { f.seconds = 1e300 }, "-seconds"},
		{"negative min-mticks", func(f *flags) { f.minMticks = -1 }, "-min-mticks"},
		{"NaN min-mticks", func(f *flags) { f.minMticks = math.NaN() }, "-min-mticks"},
		{"infinite min-mticks", func(f *flags) { f.minMticks = math.Inf(1) }, "-min-mticks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := good
			tc.mut(&f)
			_, err := f.validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error naming %s", err, tc.want)
			}
		})
	}
}
