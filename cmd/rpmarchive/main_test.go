package main

import "testing"

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		spec string
		k, n int
		ok   bool
	}{
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"1/4x", 0, 0, false},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"0/0", 0, 0, false},
		{"1", 0, 0, false},
		{"1/", 0, 0, false},
	} {
		k, n, err := parseShard(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("parseShard(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if k != tc.k || n != tc.n {
			t.Errorf("parseShard(%q) = %d/%d, want %d/%d", tc.spec, k, n, tc.k, tc.n)
		}
	}
}
