package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"rpm"
	"rpm/internal/experiments/archive"
)

// RotationDatasets are the shape-like datasets used in the paper's
// rotation case study (Table 4).
func RotationDatasets() []string {
	return []string{"SynCoffee", "SynFaceFour", "SynGunPoint", "SynSwedishLeaf", "SynOSULeaf"}
}

// rotationColumns are the Table 4 columns.
var rotationColumns = []string{MethodNNED, MethodNNDTWB, MethodSAXVSM, MethodLS, MethodRPM}

// RotationMethods returns the Table 4 methods: the baselines as in
// Table 1, and RPM with its rotation-invariant transform enabled.
func RotationMethods(cfg Config) []archive.Method {
	o := rpmOptions(cfg)
	o.RotationInvariant = true
	return append(Methods(cfg, rotationColumns[:len(rotationColumns)-1]...), rpmMethod(MethodRPM, o))
}

// RotateDataset returns a copy of d with every series circularly shifted
// at an independent random cut point (paper §6.1: training data stays
// unmodified, only test data is distorted). d is left unmodified.
func RotateDataset(d rpm.Dataset, rng *rand.Rand) rpm.Dataset {
	out := make(rpm.Dataset, len(d))
	for i, in := range d {
		out[i] = in
		if n := len(in.Values); n >= 2 {
			out[i].Values = rpm.Rotate(in.Values, 1+rng.Intn(n-1))
		}
	}
	return out
}

// RotationSource serves the Table 4 splits: unmodified training data and
// rotated test data. The splits are built once, in RotationDatasets()
// order, from one RNG seeded with seed+7, so every dataset's rotations
// are fixed by the seed alone.
func RotationSource(seed int64) archive.Source {
	rng := rand.New(rand.NewSource(seed + 7))
	src := make(splitSource, 0, len(RotationDatasets()))
	for _, name := range RotationDatasets() {
		split := rpm.GenerateDataset(name, seed)
		split.Test = RotateDataset(split.Test, rng)
		src = append(src, split)
	}
	return src
}

// AlarmSource serves the §6.2 medical-alarm case study's one split: the
// synthetic arterial-blood-pressure data, normal vs alarm-triggering
// waveform segments.
func AlarmSource(seed int64) archive.Source {
	return splitSource{rpm.GenerateABP(seed)}
}

// splitSource serves in-memory splits, listed in slice order.
type splitSource []rpm.Split

func (s splitSource) Names() ([]string, error) {
	names := make([]string, len(s))
	for i, split := range s {
		names[i] = split.Name
	}
	return names, nil
}

func (s splitSource) Load(name string) (rpm.Split, error) {
	for _, split := range s {
		if split.Name == name {
			return split, nil
		}
	}
	return rpm.Split{}, fmt.Errorf("experiments: unknown dataset %q", name)
}

// FormatTable4 renders the paper's Table 4: error on shifted test data.
func FormatTable4(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Table 4: classification error on rotated (shifted) test data\n")
	writeRanked(&b, rows, rotationColumns, ErrMetric, "%.3f", "# best (incl. ties)")
	return b.String()
}

// FormatAlarmCase renders the case-study outcome.
func FormatAlarmCase(rows []archive.Outcome, methods []string) string {
	var b strings.Builder
	b.WriteString("Case study (§6.2): ICU arterial-blood-pressure alarm classification\n")
	b.WriteString("(synthetic ABP beat trains: normal vs hypotension/damped-artifact alarms)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Method\tError\tAccuracy\tTotal time (s)\n")
	for _, dr := range byDataset(rows) {
		for _, m := range methods {
			r, ok := dr.rows[m]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2f\n", m, r.ErrorRate(), 1-r.ErrorRate(), TimeMetric(r))
		}
	}
	w.Flush()
	return b.String()
}
