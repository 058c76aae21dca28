package ptrnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// weightsMagic opens every weights file. The byte after it is the schema
// version.
var weightsMagic = []byte("RSPTWTS\n")

// WeightsVersion is the weights-file schema version this build writes
// and accepts. ReadWeights rejects any other version outright — a hot
// reload must never interpret a stale-format file silently.
const WeightsVersion = 1

// maxWeightsDim bounds Config dimensions accepted from a weights file.
// It is far above anything the paper uses (hidden 256) and keeps a
// corrupted or adversarial header from driving New into a huge
// allocation or a panic.
const maxWeightsDim = 4096

// snapshot is the gob wire format for a serialized model.
type snapshot struct {
	Cfg     Config
	Weights [][]float64
	Shapes  [][2]int
}

// WriteWeights serializes the model in the versioned wire format:
// an 8-byte magic, a version byte, then the gob-encoded snapshot.
func WriteWeights(w io.Writer, m *Model) error {
	if _, err := w.Write(weightsMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{WeightsVersion}); err != nil {
		return err
	}
	snap := snapshot{Cfg: m.Cfg}
	for _, p := range m.Params() {
		snap.Weights = append(snap.Weights, append([]float64(nil), p.Data...))
		snap.Shapes = append(snap.Shapes, [2]int{p.Rows, p.Cols})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// ReadWeights deserializes a model written with WriteWeights. A stream
// that does not open with the magic, or carries a different version, is
// rejected. Corrupted or truncated input yields an error, never a
// panic — the online promotion path feeds this from untrusted disk
// state.
func ReadWeights(r io.Reader) (*Model, error) {
	head := make([]byte, len(weightsMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("ptrnet: truncated weights header: %w", err)
	}
	if !bytes.HasPrefix(head, weightsMagic) {
		return nil, fmt.Errorf("ptrnet: not a weights file: missing the %q header", weightsMagic)
	}
	if ver := head[len(weightsMagic)]; ver != WeightsVersion {
		return nil, fmt.Errorf("ptrnet: weights schema version %d, this build reads %d", ver, WeightsVersion)
	}
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ptrnet: decode: %w", err)
	}
	return modelFromSnapshot(snap)
}

// modelFromSnapshot validates a decoded snapshot before materializing
// it; every field is attacker-controlled from ReadWeights' view.
func modelFromSnapshot(snap snapshot) (*Model, error) {
	cfg := snap.Cfg
	if cfg.InputDim < 1 || cfg.InputDim > maxWeightsDim || cfg.Hidden < 1 || cfg.Hidden > maxWeightsDim {
		return nil, fmt.Errorf("ptrnet: snapshot config %+v out of range [1,%d]", cfg, maxWeightsDim)
	}
	if len(snap.Weights) != len(snap.Shapes) {
		return nil, fmt.Errorf("ptrnet: snapshot has %d tensors but %d shapes", len(snap.Weights), len(snap.Shapes))
	}
	m := New(cfg)
	ps := m.Params()
	if len(ps) != len(snap.Weights) {
		return nil, fmt.Errorf("ptrnet: snapshot has %d tensors, model has %d", len(snap.Weights), len(ps))
	}
	for i, p := range ps {
		if snap.Shapes[i] != [2]int{p.Rows, p.Cols} {
			return nil, fmt.Errorf("ptrnet: tensor %d shape %v, want %dx%d", i, snap.Shapes[i], p.Rows, p.Cols)
		}
		if len(snap.Weights[i]) != p.Rows*p.Cols {
			return nil, fmt.Errorf("ptrnet: tensor %d has %d values, want %d", i, len(snap.Weights[i]), p.Rows*p.Cols)
		}
		copy(p.Data, snap.Weights[i])
	}
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteWeights(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadWeights(f)
}
