package rpm

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"rpm/internal/core"
	"rpm/internal/obs"
)

// Canonical stage (span) and counter names appearing in TrainReport,
// re-exported from the training pipeline so callers can look values up
// without string drift. See DESIGN.md §9 for the full glossary and the
// mapping back to the paper's sections.
const (
	// Stages (the span tree under StageTrain).
	StageTrain       = core.SpanTrain       // whole training run
	StageParamSearch = core.SpanParamSearch // §4 / Algorithm 3 SAX-parameter search
	StageCandidates  = core.SpanCandidates  // per-class candidate generation fan-out
	StageStep1       = core.SpanStep1       // §3.2.1 SAX discretization (aggregate)
	StageStep2       = core.SpanStep2       // §3.2.2 grammar induction + clustering (aggregate)
	StageStep3       = core.SpanStep3       // §3.2.3 τ-pruning, transform, CFS
	StageFit         = core.SpanFit         // final transform + SVM fit

	// Counters.
	CounterCandidates      = core.CtrCandidates      // candidates before pruning (Table 2's driver)
	CounterCandidatesClass = core.CtrCandidatesClass // + class label: per-class breakdown
	CounterClustersKept    = core.CtrClustersKept    // refined clusters meeting the γ support bound
	CounterClustersDropped = core.CtrClustersDropped // refined clusters below it
	CounterPruneKept       = core.CtrPruneKept       // candidates surviving the τ threshold
	CounterPruneDropped    = core.CtrPruneDropped    // near-duplicates removed by it
	CounterSearchEvals     = core.CtrSearchEvals     // full parameter-vector evaluations
	CounterCacheHits       = core.CtrSearchCacheHits // parameter-cache hits
	CounterCacheMisses     = core.CtrSearchCacheMiss // parameter-cache misses
	CounterCFSExpansions   = core.CtrCFSExpansions   // CFS best-first node expansions
	CounterCFSSelected     = core.CtrCFSSelected     // patterns CFS kept

	// CounterSearchSaturatedAt is the number of distinct evaluations made
	// when the last class reached mean F = 1 and the DIRECT search
	// stopped; it is absent when the search never did.
	CounterSearchSaturatedAt = core.CtrSearchSaturatedAt
)

// StageTiming is one node of the training timing tree. Wall is the
// node's accumulated wall-clock time; for aggregate stages (StageStep1,
// StageStep2) it is the summed per-class work, which under Workers > 1
// can exceed the parent's wall. Count is the number of intervals folded
// in (e.g. classes, for aggregate stages).
type StageTiming struct {
	Name     string        `json:"name"`
	Wall     time.Duration `json:"wallNS"`
	Count    int64         `json:"count,omitempty"`
	Children []StageTiming `json:"children,omitempty"`
}

// PoolUsage is one worker pool's cumulative accounting: how many tasks
// ran, how the busy time compares to the scheduled capacity (Idle =
// workers×wall − busy), and how evenly tasks spread over worker slots.
type PoolUsage struct {
	Name           string        `json:"name"`
	Runs           int64         `json:"runs"`
	Tasks          int64         `json:"tasks"`
	Busy           time.Duration `json:"busyNS"`
	Wall           time.Duration `json:"wallNS"`
	Idle           time.Duration `json:"idleNS"`
	MaxWorkers     int           `json:"maxWorkers"`
	TasksPerWorker []int64       `json:"tasksPerWorker,omitempty"`
}

// TrainReport is the instrumentation record of one training run:
// the stage timing tree, the pipeline counters (see the Counter*
// constants), gauges, and per-pool worker usage. Produced by
// Classifier.TrainReport after training with Options.Instrument.
//
// The report is a passive record — reading it, rendering it, or
// discarding it never affects the classifier.
type TrainReport struct {
	Stages   []StageTiming    `json:"stages,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Pools    []PoolUsage      `json:"pools,omitempty"`
}

// TrainReport returns the instrumentation gathered while this classifier
// trained, or nil when training ran without Options.Instrument (or the
// model was loaded from a snapshot — reports are not serialized).
func (c *Classifier) TrainReport() *TrainReport {
	return reportFromSnapshot(c.inner.TrainSnapshot())
}

// Counter returns a counter's value by name (see the Counter*
// constants); 0 when absent or on a nil report.
func (r *TrainReport) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.Counters[name]
}

// Stage returns the first stage with the given name (depth-first over
// the timing tree), or nil.
func (r *TrainReport) Stage(name string) *StageTiming {
	if r == nil {
		return nil
	}
	for i := range r.Stages {
		if f := findStage(&r.Stages[i], name); f != nil {
			return f
		}
	}
	return nil
}

func findStage(s *StageTiming, name string) *StageTiming {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if f := findStage(&s.Children[i], name); f != nil {
			return f
		}
	}
	return nil
}

// JSON renders the report as indented JSON with a stable field order
// (stages in creation order, counters/gauges name-sorted by Go's map
// marshaling, pools name-sorted).
func (r *TrainReport) JSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A TrainReport is plain data; marshaling it cannot fail unless
		// an invariant broke, so classify as internal.
		return nil, apiErr("TrainReport.JSON", ErrInternal, err)
	}
	return b, nil
}

// String renders the report for humans: the stage tree with durations,
// then counters, gauges and pool usage.
func (r *TrainReport) String() string {
	if r == nil {
		return "(not instrumented)\n"
	}
	var b strings.Builder
	if len(r.Stages) > 0 {
		b.WriteString("stages:\n")
		for _, s := range r.Stages {
			writeStage(&b, s, 1)
		}
	}
	if len(r.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(r.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", name, r.Counters[name])
		}
	}
	if len(r.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(r.Gauges) {
			fmt.Fprintf(&b, "  %-36s %d\n", name, r.Gauges[name])
		}
	}
	if len(r.Pools) > 0 {
		b.WriteString("pools:\n")
		for _, p := range r.Pools {
			fmt.Fprintf(&b, "  %-28s runs=%d tasks=%d busy=%s idle=%s maxWorkers=%d\n",
				p.Name, p.Runs, p.Tasks, p.Busy.Round(time.Microsecond),
				p.Idle.Round(time.Microsecond), p.MaxWorkers)
		}
	}
	return b.String()
}

func writeStage(b *strings.Builder, s StageTiming, depth int) {
	fmt.Fprintf(b, "%s%-*s wall=%s", strings.Repeat("  ", depth), 36-2*depth, s.Name,
		s.Wall.Round(time.Microsecond))
	if s.Count > 1 {
		fmt.Fprintf(b, " n=%d", s.Count)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeStage(b, c, depth+1)
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// reportFromSnapshot converts the internal snapshot into the public,
// self-contained report type. Nil in, nil out.
func reportFromSnapshot(s *obs.Snapshot) *TrainReport {
	if s == nil {
		return nil
	}
	r := &TrainReport{}
	for _, sp := range s.Spans {
		r.Stages = append(r.Stages, stageFromSpan(sp))
	}
	if len(s.Counters) > 0 {
		r.Counters = make(map[string]int64, len(s.Counters))
		for _, c := range s.Counters {
			r.Counters[c.Name] = c.Value
		}
	}
	if len(s.Gauges) > 0 {
		r.Gauges = make(map[string]int64, len(s.Gauges))
		for _, g := range s.Gauges {
			r.Gauges[g.Name] = g.Value
		}
	}
	for _, p := range s.Pools {
		r.Pools = append(r.Pools, PoolUsage{
			Name:           p.Name,
			Runs:           p.Runs,
			Tasks:          p.Tasks,
			Busy:           time.Duration(p.BusyNS),
			Wall:           time.Duration(p.WallNS),
			Idle:           time.Duration(p.IdleNS),
			MaxWorkers:     p.MaxWorkers,
			TasksPerWorker: p.TasksPerWorker,
		})
	}
	return r
}

func stageFromSpan(s obs.SpanSnapshot) StageTiming {
	out := StageTiming{
		Name:  s.Name,
		Wall:  time.Duration(s.WallNS),
		Count: s.Count,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, stageFromSpan(c))
	}
	return out
}
