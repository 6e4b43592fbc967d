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
// offset. The summed detector state exceeds a core's L2 cache, as in the
// served workload, which BenchmarkStreamAppend's one small detector does
// not.
//
// One op is one whole round from one warmed state: 256 fresh detectors,
// each warmed through 2,048 samples outside the timer, then 16 timed
// appends per detector. ns/sample is the per-sample cost of the timed
// appends. Every op does the same work from the same state, so the
// reading does not depend on b.N or -benchtime. Keeping the detectors
// across ops would not do that: a detector's best matches only ever
// improve, so the later its appends, the less they cost.
func BenchmarkStreamAppendServed(b *testing.B) {
	const (
		detectors = 256
		chunk     = 64
		warmup    = 2048
		appends   = 16 // timed appends per detector and op
	)
	sb, err := servedBenchModel()
	if err != nil {
		b.Fatal(err)
	}
	n := len(sb.data)
	data := append(sb.data[:n:n], sb.data[:chunk]...) // every chunk is contiguous
	ds := make([]*stream.Detector, detectors)
	pos := make([]int, detectors)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range ds {
			// Warm each detector past warm-up and the first stretch in
			// which best matches still move often.
			ds[k] = sb.m.NewDetector(stream.Config{ConfirmWindows: 1})
			start := (k * sb.seriesLen * 7) % (n - warmup)
			ds[k].Append(data[start : start+warmup])
			pos[k] = start + warmup
		}
		b.StartTimer()
		for a := 0; a < appends; a++ {
			for k, d := range ds {
				d.Append(data[pos[k] : pos[k]+chunk])
				pos[k] = (pos[k] + chunk) % n
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*appends*detectors*chunk), "ns/sample")
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
