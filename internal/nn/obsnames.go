package nn

// Observability names of the 1NN baselines (rpmlint obsnames
// convention: every recorded series is declared here).
//
// SpanLOOCV is the span recorded by BestWindow around the whole
// leave-one-out window sweep; each candidate window w gets a child span
// named SpanLOOCVWindow + strconv.Itoa(w).
const (
	SpanLOOCV       = "nn.loocv"
	SpanLOOCVWindow = "nn.loocv.window." // + window half-width
	PoolLOOCV       = "pool.nn.loocv"
)
