package stream_test

import (
	"sync"
	"testing"

	"rpm"
	"rpm/internal/stream"
)

// BenchmarkStreamAppendServed measures ingest on the model perfbench's
// stream workload serves: SynCinCECG (seed 1) trained with fixed
// heuristic SAX parameters, 256 warm detectors fed 64-sample chunks of
// the concatenated test series in round-robin, each from its own
// offset. One op is one append; ns/sample is the per-sample cost. The
// summed detector state exceeds a core's L2 cache, as in the served
// workload, which BenchmarkStreamAppend's one small detector does not.
func BenchmarkStreamAppendServed(b *testing.B) {
	const (
		detectors = 256
		chunk     = 64
		warmup    = 2048
	)
	sb, err := servedBenchModel()
	if err != nil {
		b.Fatal(err)
	}
	n := len(sb.data)
	data := append(sb.data[:n:n], sb.data[:chunk]...) // every chunk is contiguous
	ds := make([]*stream.Detector, detectors)
	pos := make([]int, detectors)
	step := func(i int) {
		k := i % detectors
		ds[k].Append(data[pos[k] : pos[k]+chunk])
		pos[k] = (pos[k] + chunk) % n
	}
	for k := range ds {
		// Warm each detector through 2,048 samples, past warm-up and
		// the first stretch in which best matches still move often, so
		// the timed appends see the steady state whatever b.N is.
		ds[k] = sb.m.NewDetector(stream.Config{ConfirmWindows: 1})
		start := (k * sb.seriesLen * 7) % (n - warmup)
		ds[k].Append(data[start : start+warmup])
		pos[k] = start + warmup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
}

// servedBench is the served model, trained once per process (the
// benchmark function runs once per b.N probe), with the concatenated
// test series and the length of one series.
type servedBench struct {
	m         *stream.Model
	data      []float64
	seriesLen int
}

var servedBenchModel = sync.OnceValues(func() (servedBench, error) {
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	split := rpm.GenerateDataset("SynCinCECG", 1)
	clf, err := rpm.Train(split.Train, opts)
	if err != nil {
		return servedBench{}, err
	}
	pats := clf.Patterns()
	raw := make([][]float64, len(pats))
	for i, p := range pats {
		raw[i] = p.Values
	}
	m, err := stream.NewModel(raw, clf)
	var data []float64
	for _, in := range split.Test {
		data = append(data, in.Values...)
	}
	return servedBench{m, data, len(split.Test[0].Values)}, err
})
