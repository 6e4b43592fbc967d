// Package dataset reads and writes time-series datasets in the UCR archive
// text format: one instance per line, the class label first, followed by
// the observations, separated by commas or whitespace. It also bundles a
// train/test split, the unit every experiment operates on.
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"rpm/internal/ts"
)

// Split is a named dataset with its train/test partition.
type Split struct {
	Name  string
	Train ts.Dataset
	Test  ts.Dataset
}

// DefaultMaxLineValues caps the observations per row (the longest UCR
// series is ~3k points; 2^20 leaves three orders of magnitude of
// headroom). The cap bounds memory on hostile input.
const DefaultMaxLineValues = 1 << 20

// maxLineBytes admits any row of a label and DefaultMaxLineValues values
// in strconv's shortest form: at most 25 bytes a value, separator included.
const maxLineBytes = (DefaultMaxLineValues + 1) * 25

// maxLabel bounds the magnitude of a parsed class label so the
// float→int conversion is always well defined.
const maxLabel = 1 << 31

// Read parses UCR-format instances from r. Parsing is strict: every row
// must have the same number of values, every value and label must be
// finite, and a row may hold at most DefaultMaxLineValues observations,
// so malformed or hostile files fail at parse time with a line-numbered
// error instead of panicking later inside the distance kernels. Labels
// may be written as floating-point numbers (several UCR files use
// "1.0000000e+00"); they are rounded to the nearest integer. It never
// panics: any malformed input yields an error naming the first offending
// line.
func Read(r io.Reader) (ts.Dataset, error) {
	var out ts.Dataset
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), maxLineBytes)
	lineNo := 0
	wantLen := -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := splitFields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: need a label and at least one value", lineNo)
		}
		if len(fields)-1 > DefaultMaxLineValues {
			return nil, fmt.Errorf("dataset: line %d: %d values exceed the per-line cap %d", lineNo, len(fields)-1, DefaultMaxLineValues)
		}
		lf, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		if math.IsNaN(lf) || math.IsInf(lf, 0) || lf < -maxLabel || lf > maxLabel {
			return nil, fmt.Errorf("dataset: line %d: non-finite or out-of-range label %q", lineNo, fields[0])
		}
		values := make([]float64, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, f, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: line %d: non-finite value %q", lineNo, f)
			}
			values[i] = v
		}
		if wantLen < 0 {
			wantLen = len(values)
		} else if len(values) != wantLen {
			return nil, fmt.Errorf("dataset: line %d: ragged row: %d values, want %d", lineNo, len(values), wantLen)
		}
		out = append(out, ts.Instance{Label: int(math.Round(lf)), Values: values})
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("dataset: line %d: longer than %d bytes", lineNo+1, maxLineBytes)
	} else if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return out, nil
}

// splitFields splits on commas and/or runs of whitespace.
func splitFields(line string) []string {
	if strings.ContainsRune(line, ',') {
		parts := strings.Split(line, ",")
		out := parts[:0]
		for _, p := range parts {
			p = strings.TrimSpace(p)
			if p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return strings.Fields(line)
}

// Write renders d to w in UCR format (comma-separated).
func Write(w io.Writer, d ts.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, in := range d {
		if _, err := fmt.Fprintf(bw, "%d", in.Label); err != nil {
			return err
		}
		for _, v := range in.Values {
			if _, err := fmt.Fprintf(bw, ",%g", v); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes one UCR-format file.
func WriteFile(path string, d ts.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSplit writes s in the UCR archive layout.
func WriteSplit(dir string, s Split) error {
	if err := WriteFile(dir+"/"+s.Name+"_TRAIN", s.Train); err != nil {
		return err
	}
	return WriteFile(dir+"/"+s.Name+"_TEST", s.Test)
}
