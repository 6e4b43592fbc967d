package dataset

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rpm/internal/ts"
)

func TestReadCommaSeparated(t *testing.T) {
	in := "1,0.5,1.5,-2\n2,3,4,5\n"
	d, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := ts.Dataset{
		{Label: 1, Values: []float64{0.5, 1.5, -2}},
		{Label: 2, Values: []float64{3, 4, 5}},
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("Read = %v", d)
	}
}

func TestReadWhitespaceSeparated(t *testing.T) {
	in := "  1   0.5 1.5\t-2 \n\n 2 3 4 5\n"
	d, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0].Label != 1 || len(d[1].Values) != 3 {
		t.Errorf("Read = %v", d)
	}
}

func TestReadScientificLabels(t *testing.T) {
	in := "1.0000000e+00,1,2\n-1.0000000e+00,3,4\n"
	d, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d[0].Label != 1 || d[1].Label != -1 {
		t.Errorf("labels = %d, %d", d[0].Label, d[1].Label)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"notanumber,1,2\n",
		"1,xyz\n",
		"1\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	d, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Errorf("empty input gave %v", d)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d ts.Dataset
	for i := 0; i < 10; i++ {
		v := make([]float64, 20)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		d = append(d, ts.Instance{Label: i % 3, Values: v})
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("round trip mismatch")
	}
}

func TestFileAndSplitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Split{
		Name: "Foo",
		Train: ts.Dataset{
			{Label: 1, Values: []float64{1, 2}},
			{Label: 2, Values: []float64{3, 4}},
		},
		Test: ts.Dataset{
			{Label: 1, Values: []float64{5, 6}},
		},
	}
	if err := WriteSplit(dir, s); err != nil {
		t.Fatal(err)
	}
	got := Split{Name: "Foo"}
	for _, part := range []struct {
		file string
		dst  *ts.Dataset
	}{{"Foo_TRAIN", &got.Train}, {"Foo_TEST", &got.Test}} {
		f, err := os.Open(filepath.Join(dir, part.file))
		if err != nil {
			t.Fatal(err)
		}
		*part.dst, err = Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("read back %+v", got)
	}
}
