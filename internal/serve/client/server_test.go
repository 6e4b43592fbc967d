package serveclient_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rpm"
	"rpm/internal/serve"
	serveclient "rpm/internal/serve/client"
)

// TestClientAgainstServer drives the client against the real serve.Server
// handler rather than a hand-written fake, so a drift between what the
// server encodes and what the client decodes fails here.
func TestClientAgainstServer(t *testing.T) {
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	opts.Params = rpm.SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	opts.Workers = 1
	split := rpm.GenerateDataset("SynCBF", 1)
	clf, err := rpm.Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "cbf.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{ModelDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	c, err := serveclient.New(serveclient.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := split.Test[:8]

	want := clf.PredictBatch(probe)
	for i, inst := range probe {
		res, err := c.Predict(ctx, "cbf", inst.Values)
		if err != nil {
			t.Fatalf("Predict %d: %v", i, err)
		}
		if res.Model != "cbf" || res.Version != 1 || res.Label != clf.Predict(inst.Values) {
			t.Fatalf("Predict %d = %+v, want model cbf v1 label %d", i, res, clf.Predict(inst.Values))
		}
	}

	series := make([][]float64, len(probe))
	for i, inst := range probe {
		series[i] = inst.Values
	}
	batch, err := c.PredictBatch(ctx, "cbf", series)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	if batch.Model != "cbf" || batch.Version != 1 || !slices.Equal(batch.Labels, want) {
		t.Fatalf("PredictBatch = %+v, want model cbf v1 labels %v", batch, want)
	}

	_, err = c.Predict(ctx, "nope", probe[0].Values)
	var apiErr *serveclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != "not_found" {
		t.Fatalf("unknown model: got %v, want *APIError 404 not_found", err)
	}
	if apiErr.Message == "" {
		t.Fatal("unknown model: envelope message not decoded")
	}
}
