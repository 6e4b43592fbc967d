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
		want string // substring of the error, "" means must succeed
	}{
		{"valid", "1,0.5,0.6\n2,0.7,0.8\n", ""},
		{"valid whitespace", "1 0.5 0.6\n2 0.7 0.8\n", ""},
		{"blank lines skipped", "\n1,0.5,0.6\n\n", ""},
		{"label only", "1\n", "need a label"},
		{"bad label", "abc,1,2\n", "bad label"},
		{"nan label", "NaN,1,2\n", "non-finite or out-of-range label"},
		{"inf label", "+Inf,1,2\n", "non-finite or out-of-range label"},
		{"huge label", "1e300,1,2\n", "non-finite or out-of-range label"},
		{"bad value", "1,0.5,xyz\n", "bad value"},
		{"nan value", "1,0.5,NaN\n", "non-finite value"},
		{"inf value", "1,0.5,-Inf\n", "non-finite value"},
		{"ragged strict", "1,0.5,0.6\n2,0.7\n", "ragged row"},
		{"over cap", capLine(DefaultMaxLineValues + 1), "per-line cap"},
		{"at cap", capLine(DefaultMaxLineValues), ""},
		{"long full-precision rows", longRows(2, 900_000), ""},
		{"over byte bound", "1,0.5\n1," + strings.Repeat("1", maxLineBytes) + "\n", "line 2: longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Read(strings.NewReader(tc.in))
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

// capLine renders one UCR row holding n zero values.
func capLine(n int) string {
	return "1" + strings.Repeat(",0", n) + "\n"
}

// longRows renders rows UCR rows of n full-precision values each.
func longRows(rows, n int) string {
	row := "1" + strings.Repeat(",0.12345678901234567", n) + "\n"
	return strings.Repeat(row, rows)
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
		d, err := Read(strings.NewReader(string(data)))
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
