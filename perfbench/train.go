package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"time"

	"rpm"
)

// trainMix spans series length (24 to 150 samples) and class count (2
// to 6); together the four exhaustive DIRECT fits take a few seconds on
// two cores.
var trainMix = []string{"SynItalyPower", "SynCBF", "SynGunPoint", "SynSymbols"}

// trained is one dataset of the mix after Train and PredictBatch.
type trained struct {
	split  rpm.Split
	clf    *rpm.Classifier
	labels []int
	digest string // SHA-256 of the prediction vector
	acc    float64
	wall   time.Duration // Train + PredictBatch
}

// trainSeed draws every training set. A model's size, and with it the
// cost of training it and of every later Predict, depends on the draw
// (SynCBF selects 2 to 8 patterns across seeds), so training sets stay
// fixed and the run's seed draws the test series the models classify,
// the request mix and the stream offsets.
const trainSeed = 1

// generate builds every named dataset: the training split from
// trainSeed, the test split from the run's seed.
func generate(names []string, seed int64) []rpm.Split {
	out := make([]rpm.Split, len(names))
	for i, n := range names {
		out[i] = rpm.GenerateDataset(n, trainSeed)
		out[i].Test = rpm.GenerateDataset(n, seed).Test
	}
	return out
}

// setupMedian runs a set-up step n times and returns its median wall
// time in seconds.
func setupMedian(n int, step func()) float64 {
	walls := make([]float64, n)
	for i := range walls {
		t0 := time.Now()
		step()
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls)
}

// digestLabels is the SHA-256 of a prediction vector.
func digestLabels(labels []int) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func accuracy(labels []int, test rpm.Dataset) float64 {
	hit := 0
	for i, in := range test {
		if labels[i] == in.Label {
			hit++
		}
	}
	return frac(float64(hit), float64(len(test)))
}

// trainOnce trains and batch-classifies every dataset of the mix. It
// returns the trained models and the summed Train+PredictBatch wall
// time; a training error fails the op.
func trainOnce(res *result, splits []rpm.Split, opts rpm.Options) (out []trained, wall time.Duration) {
	for _, s := range splits {
		res.attempted += 2 // Train, PredictBatch
		t0 := time.Now()
		clf, err := rpm.Train(s.Train, opts)
		if err != nil {
			res.failed += 2
			res.problemf("train %s: %v", s.Name, err)
			continue
		}
		labels := clf.PredictBatch(s.Test)
		d := time.Since(t0)
		wall += d
		out = append(out, trained{split: s, clf: clf, labels: labels,
			digest: digestLabels(labels), acc: accuracy(labels, s.Test), wall: d})
	}
	return out, wall
}

// sameModels records a problem when a repeated training run predicted
// differently from the first: training is deterministic.
func sameModels(res *result, first, again []trained) {
	if len(first) != len(again) {
		res.problemf("repeated training produced %d models, first run %d", len(again), len(first))
		return
	}
	for i := range first {
		if first[i].digest != again[i].digest {
			res.problemf("%s: repeated training changed the predictions", first[i].split.Name)
		}
	}
}

func runTrain(cfg config) (*result, error) {
	res := newResult()
	var splits []rpm.Split
	setup := setupMedian(15, func() { splits = generate(trainMix, cfg.seed) })
	if cfg.trace {
		res.startLayers()
		traceTrain(cfg, res, splits)
		return res, nil
	}

	res.put("setup_s", setup)

	// Phase 1: repeated full fits; the median rep is the training time.
	start := time.Now()
	budget := time.Duration(cfg.seconds * 0.6 * float64(time.Second))
	var first []trained
	var trainS, trainCPU []float64
	var last time.Duration
	for len(trainS) == 0 || time.Since(start)+last < budget {
		// Every rep starts from a collected heap, so the garbage collector
		// paces each one alike.
		runtime.GC()
		c0 := cpuTime()
		models, tw := trainOnce(res, splits, rpm.DefaultOptions())
		trainCPU = append(trainCPU, (cpuTime() - c0).Seconds())
		if first == nil {
			first = models
		} else {
			sameModels(res, first, models)
		}
		trainS = append(trainS, tw.Seconds())
		last = tw
	}
	if len(first) == 0 {
		return res, nil
	}
	var series, tests float64
	var accSum float64
	for _, m := range first {
		series += float64(len(m.split.Train) + len(m.split.Test))
		tests += float64(len(m.split.Test))
		accSum += m.acc
		res.detailf("dataset %s train_s=%.4f accuracy=%.4f patterns=%d predictions_sha256=%s",
			m.split.Name, m.wall.Seconds(), m.acc, m.clf.NumPatterns(), m.digest)
	}
	res.detailf("train_s median=%.4f cpu_s median=%.4f reps=%d accuracy_mean=%.4f",
		median(trainS), median(trainCPU), len(trainS), accSum/float64(len(first)))
	res.put("throughput_per_cpu_s", series/median(trainCPU))

	// Phases 2 and 3 alternate in rounds over the rest of the run, so both
	// sample the same stretch of machine time: in-process PredictBatch
	// passes, then single-series Predict on one goroutine. Each round
	// classifies fresh copies of the test series, so no one memory layout
	// decides the run.
	checkPredict(res, first)
	const rounds = 6
	var batchCPU, batchWall time.Duration
	var batched float64
	var lat []float64
	for r := 0; r < rounds || len(lat) < tailSamples(0.99); r++ {
		tests := make([]rpm.Dataset, len(first))
		for i, m := range first {
			tests[i] = copyDataset(m.split.Test)
		}
		runtime.GC()
		end := deadline(cfg, 0.2/rounds)
		for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
			t0, c0 := time.Now(), cpuTime()
			for i, m := range first {
				res.attempted++
				if digestLabels(m.clf.PredictBatch(tests[i])) != m.digest {
					res.failed++
					res.problemf("%s: PredictBatch changed between calls", m.split.Name)
				}
				batched += float64(len(tests[i]))
			}
			batchCPU += cpuTime() - c0
			batchWall += time.Since(t0)
		}
		lat = append(lat, predictLatency(first, tests, deadline(cfg, 0.2/rounds))...)
	}
	res.attempted += int64(len(lat))
	res.detailf("predict_batch series=%.0f series_per_s=%.0f", batched, batched/batchWall.Seconds())
	res.put("batch_throughput_per_cpu_s", batched/batchCPU.Seconds())
	res.put("latency_p50_ms", percentile(lat, 0.50))
	res.detailf("predict latency samples=%d beyond_p99=%d", len(lat), beyond(lat, 0.99))
	res.put("peak_rss_mb", peakRSSMB("self"))
	return res, nil
}

func copyDataset(d rpm.Dataset) rpm.Dataset {
	out := make(rpm.Dataset, len(d))
	for i, in := range d {
		out[i] = rpm.Instance{Label: in.Label, Values: append([]float64(nil), in.Values...)}
	}
	return out
}

// checkPredict requires single-series Predict to agree with PredictBatch
// on every test series; it doubles as the latency warm-up.
func checkPredict(res *result, models []trained) {
	for _, m := range models {
		for i, in := range m.split.Test {
			res.attempted++
			if got := m.clf.Predict(in.Values); got != m.labels[i] {
				res.failed++
				res.problemf("%s test %d: Predict=%d, PredictBatch=%d", m.split.Name, i, got, m.labels[i])
			}
		}
	}
}

// predictLatency times Predict on every series of tests[i] with
// models[i], one call at a time on this goroutine, in passes until end
// (at least one pass).
func predictLatency(models []trained, tests []rpm.Dataset, end time.Time) []float64 {
	var lat []float64
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		for i, m := range models {
			for _, in := range tests[i] {
				t0 := time.Now()
				m.clf.Predict(in.Values)
				lat = append(lat, ms(time.Since(t0)))
			}
		}
	}
	return lat
}

// traceTrain is the per-layer run: one untraced and one instrumented pass
// over the mix (their ratio is the tracing overhead), the TrainReport
// stage times and counters summed over the mix, Go runtime deltas around
// each Train, and the kernel replays on the trained models.
func traceTrain(cfg config, res *result, splits []rpm.Split) {
	_, base := trainOnce(res, splits, rpm.DefaultOptions())
	opts := rpm.DefaultOptions()
	opts.Instrument = true
	var models []trained
	var traced time.Duration
	var allocMB, gcs float64
	var ms0, ms1 runtime.MemStats
	for _, s := range splits {
		runtime.ReadMemStats(&ms0)
		m, tw := trainOnce(res, []rpm.Split{s}, opts)
		runtime.ReadMemStats(&ms1)
		traced += tw
		allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		gcs += float64(ms1.NumGC - ms0.NumGC)
		models = append(models, m...)
	}
	res.put("go.train_alloc_mb", allocMB)
	res.put("go.train_gc_cycles", gcs)
	res.put("bench.trace_overhead_frac", frac(traced.Seconds(), base.Seconds())-1)
	addTrainReports(res, models)
	var acc float64
	for _, m := range models {
		acc += m.acc
	}
	res.put("core.test_accuracy", frac(acc, float64(len(models))))
	checkPredict(res, models)
	tests := make([]rpm.Dataset, len(models))
	for i, m := range models {
		tests[i] = m.split.Test
	}
	lat := predictLatency(models, tests, deadline(cfg, 0.1))
	res.attempted += int64(len(lat))
	res.put("bench.latency_p99_ms", percentile(lat, 0.99))
	replayKernels(res, models)
}

// addTrainReports sums the TrainReports of the mix into the per-layer
// training metrics.
func addTrainReports(res *result, models []trained) {
	stage := func(r *rpm.TrainReport, name string) float64 {
		if st := r.Stage(name); st != nil {
			return st.Wall.Seconds()
		}
		return 0
	}
	var search, train, cand, step1, step2, step3, fit float64
	var evals, hits, misses, cands, kept, dropped, pKept, pDropped, cfsExp, cfsSel float64
	idle := map[string][2]float64{} // pool → (idle, busy+idle)
	for _, m := range models {
		r := m.clf.TrainReport()
		if r == nil {
			res.problemf("%s: no TrainReport from an instrumented Train", m.split.Name)
			continue
		}
		search += stage(r, rpm.StageParamSearch)
		train += stage(r, rpm.StageTrain)
		cand += stage(r, rpm.StageCandidates)
		step1 += stage(r, rpm.StageStep1)
		step2 += stage(r, rpm.StageStep2)
		step3 += stage(r, rpm.StageStep3)
		fit += stage(r, rpm.StageFit)
		evals += float64(r.Counter(rpm.CounterSearchEvals))
		hits += float64(r.Counter(rpm.CounterCacheHits))
		misses += float64(r.Counter(rpm.CounterCacheMisses))
		cands += float64(r.Counter(rpm.CounterCandidates))
		kept += float64(r.Counter(rpm.CounterClustersKept))
		dropped += float64(r.Counter(rpm.CounterClustersDropped))
		pKept += float64(r.Counter(rpm.CounterPruneKept))
		pDropped += float64(r.Counter(rpm.CounterPruneDropped))
		cfsExp += float64(r.Counter(rpm.CounterCFSExpansions))
		cfsSel += float64(r.Counter(rpm.CounterCFSSelected))
		for _, p := range r.Pools {
			v := idle[p.Name]
			v[0] += p.Idle.Seconds()
			v[1] += (p.Busy + p.Idle).Seconds()
			idle[p.Name] = v
		}
	}
	res.put("core.param_search_s", search)
	res.put("core.search_share", frac(search, train))
	res.put("core.candidates_s", cand)
	res.put("sax.step1_s", step1)
	res.put("core.step2_grammar_cluster_s", step2)
	res.put("core.step3_select_s", step3)
	res.put("core.fit_s", fit)
	res.put("core.search_evals", evals)
	res.put("core.search_cache_hit_frac", frac(hits, hits+misses))
	res.put("core.candidates", cands)
	res.put("cluster.kept_frac", frac(kept, kept+dropped))
	res.put("core.prune_dropped_frac", frac(pDropped, pKept+pDropped))
	res.put("features.cfs_expansions", cfsExp)
	res.put("features.cfs_selected", cfsSel)
	for metricName, pool := range map[string]string{
		"parallel.search_splits_idle_frac": "pool.search.splits",
		"parallel.candidates_idle_frac":    "pool.candidates",
		"parallel.transform_idle_frac":     "pool.transform",
	} {
		v := idle[pool]
		res.put(metricName, frac(v[0], v[1]))
	}
	res.detailf("train traced: train_s=%.4f search_s=%.4f evals=%.0f", train, search, evals)
}
