package dataset

import (
	"math"
	"strings"
	"testing"
)

// TestReadWithRejections is the table of hostile inputs the strict reader
// must refuse with a line-numbered error (and never panic on).
func TestReadWithRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts ReadOptions
		want string // substring of the error, "" means must succeed
	}{
		{"valid", "1,0.5,0.6\n2,0.7,0.8\n", ReadOptions{}, ""},
		{"valid whitespace", "1 0.5 0.6\n2 0.7 0.8\n", ReadOptions{}, ""},
		{"blank lines skipped", "\n1,0.5,0.6\n\n", ReadOptions{}, ""},
		{"label only", "1\n", ReadOptions{}, "need a label"},
		{"bad label", "abc,1,2\n", ReadOptions{}, "bad label"},
		{"nan label", "NaN,1,2\n", ReadOptions{}, "non-finite or out-of-range label"},
		{"inf label", "+Inf,1,2\n", ReadOptions{}, "non-finite or out-of-range label"},
		{"huge label", "1e300,1,2\n", ReadOptions{}, "non-finite or out-of-range label"},
		{"bad value", "1,0.5,xyz\n", ReadOptions{}, "bad value"},
		{"nan value", "1,0.5,NaN\n", ReadOptions{}, "non-finite value"},
		{"inf value", "1,0.5,-Inf\n", ReadOptions{}, "non-finite value"},
		{"ragged strict", "1,0.5,0.6\n2,0.7\n", ReadOptions{}, "ragged row"},
		{"ragged allowed", "1,0.5,0.6\n2,0.7\n", ReadOptions{AllowVariableLength: true}, ""},
		{"over cap", "1,1,2,3,4\n", ReadOptions{MaxLineValues: 3}, "per-line cap"},
		{"at cap", "1,1,2,3\n", ReadOptions{MaxLineValues: 3}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ReadWith(strings.NewReader(tc.in), tc.opts)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted hostile input, got %d instances", len(d))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzDatasetRead asserts the core robustness contract of the reader:
// any byte stream either parses into finite, well-formed instances or
// returns an error — it never panics and never lets NaN/Inf through.
func FuzzDatasetRead(f *testing.F) {
	f.Add([]byte("1,0.5,0.6\n2,0.7,0.8\n"))
	f.Add([]byte("1 0.5 0.6\n2 0.7 0.8\n"))
	f.Add([]byte("1.0000000e+00, -2.5e-1, 3\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("1\n"))
	f.Add([]byte("NaN,1,2\n"))
	f.Add([]byte("1,NaN\n"))
	f.Add([]byte("1,Inf,-Inf\n"))
	f.Add([]byte("1e999,1\n"))
	f.Add([]byte("1,2,3\n4,5\n"))
	f.Add([]byte("a,b,c\n"))
	f.Add([]byte("1,,2\n"))
	f.Add([]byte("-9999999999999999999,1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadWith(strings.NewReader(string(data)), ReadOptions{})
		if err != nil {
			return
		}
		wantLen := -1
		for i, in := range d {
			if len(in.Values) == 0 {
				t.Fatalf("instance %d has no values", i)
			}
			if wantLen < 0 {
				wantLen = len(in.Values)
			} else if len(in.Values) != wantLen {
				t.Fatalf("strict Read returned ragged rows: %d vs %d", len(in.Values), wantLen)
			}
			for j, v := range in.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("instance %d value %d is not finite: %v", i, j, v)
				}
			}
		}
	})
}
