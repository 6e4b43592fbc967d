package rpm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestSnapshotV1Compatibility loads a committed version-1 snapshot — a
// fixed-mode SynItalyPower classifier saved by an earlier build, whose
// options block still carries since-removed keys — and requires its
// labels on GenerateDataset("SynItalyPower", 1).Test and the SHA-256 of
// its Transform matrix (float64 bits, little-endian, row-major) to match
// the values recorded when it was saved. A format or kernel change that
// orphans saved models fails here.
func TestSnapshotV1Compatibility(t *testing.T) {
	f, err := os.Open("testdata/classifier_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := LoadClassifier(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/classifier_v1_expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Dataset         string `json:"dataset"`
		Seed            int64  `json:"seed"`
		Labels          []int  `json:"labels"`
		TransformSHA256 string `json:"transform_sha256"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	test := GenerateDataset(want.Dataset, want.Seed).Test
	labels := make([]int, len(test))
	h := sha256.New()
	var b [8]byte
	for i, in := range test {
		labels[i] = c.Predict(in.Values)
		for _, v := range c.Transform(in.Values) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if !reflect.DeepEqual(labels, want.Labels) {
		t.Errorf("labels changed:\n got %v\nwant %v", labels, want.Labels)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want.TransformSHA256 {
		t.Errorf("Transform matrix SHA-256 = %s, want %s", got, want.TransformSHA256)
	}
}
