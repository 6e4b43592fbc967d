package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// benchServer builds a Server over the shared trained fixture without an
// HTTP front end; benchmarks drive the handler directly so sockets stay
// out of the measurement.
func benchServer(b *testing.B) *Server {
	b.Helper()
	fixtures(b)
	dir := b.TempDir()
	writeModel(b, dir, "cbf", model1)
	s, err := New(Config{ModelDir: dir, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// BenchmarkServePredict measures one closed-loop /v1/predict request
// through the full serving path — JSON decode, validation, admission,
// pooled transform + SVM, JSON encode — the latency floor of the
// serving layer.
func BenchmarkServePredict(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	body := predictBody("cbf", fixProbe[0].Values)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
