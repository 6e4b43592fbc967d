package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// checkpointVersion guards the on-disk checkpoint format: a payload of
// one row per method of the dataset.
const checkpointVersion = 2

// checkpointFile is the JSON shape of one per-dataset checkpoint. The
// payload is kept as raw bytes so the recorded SHA-256 can be verified
// against exactly what sits on disk, not against a re-serialization.
type checkpointFile struct {
	Version int `json:"version"`
	// ConfigHash fingerprints every result-affecting knob of the run
	// that wrote the checkpoint (see Config.hash); resume refuses to
	// splice rows produced under a different configuration.
	ConfigHash string `json:"configHash"`
	// PayloadSHA is the hex SHA-256 of the Payload bytes, verified on
	// every read so a torn or hand-edited file fails loudly instead of
	// contributing a silently wrong table row.
	PayloadSHA string          `json:"payloadSha256"`
	Payload    json.RawMessage `json:"payload"`
}

// CheckpointPath returns the checkpoint file for one dataset:
// <dir>/<name>.ckpt.json.
func CheckpointPath(dir, name string) string {
	return filepath.Join(dir, name+".ckpt.json")
}

// writeCheckpoint atomically persists one finished dataset's rows:
// the bytes are written to a temp file in the same directory and
// renamed over the final path, so a crash at any instant leaves either
// the previous checkpoint or a complete new one — never a torn file
// the resume pass could half-trust.
func writeCheckpoint(dir, configHash, name string, rows []Outcome) error {
	payload, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("encoding outcomes %s: %w", name, err)
	}
	sum := sha256.Sum256(payload)
	// Compact marshal throughout: an indenting encoder would reformat
	// the raw payload bytes and the stored digest would no longer match
	// what a reader hashes.
	blob, err := json.Marshal(checkpointFile{
		Version:    checkpointVersion,
		ConfigHash: configHash,
		PayloadSHA: hex.EncodeToString(sum[:]),
		Payload:    payload,
	})
	if err != nil {
		return fmt.Errorf("encoding checkpoint %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(dir, "."+name+".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), CheckpointPath(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readCheckpoint loads and verifies one dataset's checkpoint. It
// distinguishes three non-success cases: (fs.ErrNotExist) no checkpoint
// yet, (ErrCheckpointCorrupt) a file that fails structural or byte
// verification, and (ErrCheckpointMismatch) a valid checkpoint from a
// run with different result-affecting configuration. The rows must name
// the dataset and the run's methods, in order.
func readCheckpoint(dir, name, configHash string, methods []Method) ([]Outcome, error) {
	const op = "readCheckpoint"
	blob, err := os.ReadFile(CheckpointPath(dir, name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, archErr(op, ErrCheckpointCorrupt, err)
	}
	var f checkpointFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, archErrf(op, ErrCheckpointCorrupt, "%s: %v", name, err)
	}
	if f.Version != checkpointVersion {
		return nil, archErrf(op, ErrCheckpointCorrupt, "%s: version %d (want %d)", name, f.Version, checkpointVersion)
	}
	sum := sha256.Sum256(f.Payload)
	if hex.EncodeToString(sum[:]) != f.PayloadSHA {
		return nil, archErrf(op, ErrCheckpointCorrupt, "%s: payload digest mismatch", name)
	}
	if f.ConfigHash != configHash {
		return nil, archErrf(op, ErrCheckpointMismatch, "%s: checkpoint written under config %s, current run is %s", name, f.ConfigHash, configHash)
	}
	var rows []Outcome
	if err := json.Unmarshal(f.Payload, &rows); err != nil {
		return nil, archErrf(op, ErrCheckpointCorrupt, "%s: payload: %v", name, err)
	}
	if len(rows) != len(methods) {
		return nil, archErrf(op, ErrCheckpointCorrupt, "%s: %d rows for %d methods", name, len(rows), len(methods))
	}
	for i, oc := range rows {
		if oc.Dataset != name || oc.Method != methods[i].Name {
			return nil, archErrf(op, ErrCheckpointCorrupt, "%s: row %d names (%q, %q)", name, i, oc.Dataset, oc.Method)
		}
	}
	return rows, nil
}
