package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"rpm"
	"rpm/internal/experiments/archive"
)

// AblationMethods returns the design-choice sweep DESIGN.md calls out:
// the paper's defaults against each single-knob change, one RPM method
// per variant, named after the variant. The runner trains a dataset's
// variants back to back, so their times compare.
func AblationMethods(cfg Config) []archive.Method {
	variant := func(name string, mutate func(*rpm.Options)) archive.Method {
		o := rpmOptions(cfg)
		mutate(&o)
		return archive.RPM(name, o)
	}
	return []archive.Method{
		variant("default", func(o *rpm.Options) {}),
		variant("no-numerosity", func(o *rpm.Options) { o.NumerosityReduction = false }),
		variant("medoid", func(o *rpm.Options) { o.UseMedoid = true }),
		variant("repair-gi", func(o *rpm.Options) { o.GI = rpm.GIRePair }),
		variant("rot-invariant", func(o *rpm.Options) { o.RotationInvariant = true }),
		variant("gamma-0.1", func(o *rpm.Options) { o.Gamma = 0.1 }),
		variant("gamma-0.4", func(o *rpm.Options) { o.Gamma = 0.4 }),
		variant("grid-search", func(o *rpm.Options) { o.Mode = rpm.ParamGrid }),
		variant("fixed-params", func(o *rpm.Options) { o.Mode = rpm.ParamFixed }),
	}
}

// FormatAblation renders the ablation study grouped by dataset. A
// failed or timed-out row's cells render as "-".
func FormatAblation(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Ablation study: RPM design choices (error / seconds / #patterns)\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Dataset\tVariant\tError\tTime (s)\t#Patterns\n")
	for _, r := range rows {
		if r.Status != "ok" {
			fmt.Fprintf(w, "%s\t%s\t-\t-\t-\n", r.Dataset, r.Method)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%d\n", r.Dataset, r.Method, r.ErrorRate(), TimeMetric(r), r.Patterns)
	}
	w.Flush()
	return b.String()
}
