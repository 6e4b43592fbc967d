package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"rpm/internal/datagen"
)

// goldenPath is the cross-commit model ledger at the repository root.
const goldenPath = "../../GOLDEN.json"

var goldenUpdate = flag.Bool("golden.update", false, "rewrite GOLDEN.json from this build (make golden-update)")

// goldenLedger is GOLDEN.json: per cell, the SHA-256 of the canonical
// Save bytes (canonBytes) and of the prediction vector on the test
// split. The digests are authoritative for GOARCH alone: another
// architecture may fuse multiply-adds and so round differently.
type goldenLedger struct {
	GOARCH string       `json:"goarch"`
	Cells  []goldenCell `json:"cells"`
}

type goldenCell struct {
	Name        string `json:"name"`
	Model       string `json:"model_sha256"`
	Predictions string `json:"predictions_sha256"`
}

// goldenConfig is one cell's training: Options on a generated split.
type goldenConfig struct {
	name, dataset string
	seed          int64
	opts          Options
}

// goldenCells are the ledger's training configurations. The four DIRECT
// cells under DefaultOptions are perfbench's train mix at its seed:
// SynItalyPower, SynGunPoint and SynSymbols have every class at mean
// F = 1 within two evaluations, SynCBF only late in its search. The
// small-budget SynControl search never gets there, and the grid cell
// covers the other search mode.
func goldenCells() []goldenConfig {
	small := DefaultOptions()
	small.Splits, small.MaxEvals = 2, 8
	grid := DefaultOptions()
	grid.Mode = ParamGrid
	return []goldenConfig{
		{"direct/SynItalyPower/1", "SynItalyPower", 1, DefaultOptions()},
		{"direct/SynCBF/1", "SynCBF", 1, DefaultOptions()},
		{"direct/SynGunPoint/1", "SynGunPoint", 1, DefaultOptions()},
		{"direct/SynSymbols/1", "SynSymbols", 1, DefaultOptions()},
		{"direct-small/SynControl/3", "SynControl", 3, small},
		{"grid/SynItalyPower/1", "SynItalyPower", 1, grid},
	}
}

// digestLabels is the SHA-256 of a prediction vector, each label as a
// little-endian int64 (perfbench's predictions_sha256 encoding).
func digestLabels(labels []int) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGolden recomputes GOLDEN.json: every cell at Workers 1 and 8, which
// must agree, and then against the committed digests, which must not
// move. `make golden-update` rewrites the file on purpose; a change that
// moves a digest says why in CHANGES.md.
func TestGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the ledger pins model bytes; the race detector only slows the fits")
	}
	got := goldenLedger{GOARCH: runtime.GOARCH}
	for _, cell := range goldenCells() {
		split := datagen.MustByName(cell.dataset).Generate(cell.seed)
		var digests []goldenCell
		for _, workers := range []int{1, 8} {
			opts := cell.opts
			opts.Workers = workers
			c, err := Train(split.Train, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", cell.name, workers, err)
			}
			model := sha256.Sum256(canonBytes(t, c))
			digests = append(digests, goldenCell{
				Name:        cell.name,
				Model:       hex.EncodeToString(model[:]),
				Predictions: digestLabels(c.PredictBatch(split.Test)),
			})
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: Workers 1 gives %+v, Workers 8 %+v", cell.name, digests[0], digests[1])
		}
		got.Cells = append(got.Cells, digests[0])
	}
	if *goldenUpdate {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenLedger
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("GOLDEN.json: %v", err)
	}
	if want.GOARCH != runtime.GOARCH {
		t.Skipf("GOLDEN.json holds %s digests; this build is %s", want.GOARCH, runtime.GOARCH)
	}
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("GOLDEN.json has %d cells, the test %d: run make golden-update", len(want.Cells), len(got.Cells))
	}
	for i, g := range got.Cells {
		if w := want.Cells[i]; g != w {
			t.Errorf("cell %d moved:\n got  %+v\n want %+v", i, g, w)
		}
	}
}
