package ptrnet

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	ad "respect/internal/autodiff"
)

// TestWeightsHeaderVersioned checks the wire format leads with the
// magic and version byte and round-trips through ReadWeights.
func TestWeightsHeaderVersioned(t *testing.T) {
	m := testModel(41)
	var buf bytes.Buffer
	if err := WriteWeights(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, weightsMagic) {
		t.Fatalf("file does not start with magic: % x", raw[:12])
	}
	if raw[len(weightsMagic)] != WeightsVersion {
		t.Fatalf("version byte %d, want %d", raw[len(weightsMagic)], WeightsVersion)
	}
	m2, err := ReadWeights(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	emb := testEmb(t, 10, 42)
	want, got := m.Infer(emb), m2.Infer(emb)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("round trip changed behaviour: %v vs %v", want, got)
		}
	}
}

// headerlessBytes serializes m as a bare gob stream, the format that
// predates the header.
func headerlessBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	snap := snapshot{Cfg: m.Cfg}
	for _, p := range m.Params() {
		snap.Weights = append(snap.Weights, append([]float64(nil), p.Data...))
		snap.Shapes = append(snap.Shapes, [2]int{p.Rows, p.Cols})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeaderlessWeightsRefused: a stream without the magic is not a
// weights file, and the error says what is missing.
func TestHeaderlessWeightsRefused(t *testing.T) {
	_, err := ReadWeights(bytes.NewReader(headerlessBytes(t, testModel(43))))
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("headerless stream accepted or wrong error: %v", err)
	}
}

// TestWeightsVersionMismatchRejected: right magic, wrong version byte.
func TestWeightsVersionMismatchRejected(t *testing.T) {
	m := testModel(45)
	var buf bytes.Buffer
	if err := WriteWeights(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(weightsMagic)] = 99
	_, err := ReadWeights(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version 99 accepted or wrong error: %v", err)
	}
}

// TestWeightsTruncatedRejected: every proper prefix must error cleanly.
func TestWeightsTruncatedRejected(t *testing.T) {
	m := testModel(46)
	var buf bytes.Buffer
	if err := WriteWeights(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 3, len(weightsMagic), len(weightsMagic) + 1, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadWeights(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("prefix of %d bytes accepted", n)
		}
	}
}

// TestWeightsCorruptedSnapshotRejected feeds snapshots with hostile
// fields: decode must error, never panic or allocate wildly.
func TestWeightsCorruptedSnapshotRejected(t *testing.T) {
	encode := func(snap snapshot) []byte {
		var buf bytes.Buffer
		buf.Write(weightsMagic)
		buf.WriteByte(WeightsVersion)
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]snapshot{
		"zero config":     {},
		"huge hidden":     {Cfg: Config{InputDim: 4, Hidden: 1 << 20}},
		"negative dims":   {Cfg: Config{InputDim: -3, Hidden: -7}},
		"shape mismatch":  {Cfg: Config{InputDim: 4, Hidden: 2}, Weights: [][]float64{{1}}, Shapes: [][2]int{{2, 2}}},
		"uneven lengths":  {Cfg: Config{InputDim: 4, Hidden: 2}, Weights: [][]float64{{1}, {2}}, Shapes: [][2]int{{1, 1}}},
		"too few tensors": {Cfg: Config{InputDim: 4, Hidden: 2}, Weights: [][]float64{{1}}, Shapes: [][2]int{{1, 1}}},
	}
	for name, snap := range cases {
		if _, err := ReadWeights(bytes.NewReader(encode(snap))); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
}

// TestSingleNodeGraph covers the n=1 degenerate case across every
// inference mode: the only legal output is the one-element sequence.
func TestSingleNodeGraph(t *testing.T) {
	m := testModel(47)
	emb := testEmb(t, 6, 48)[:1]
	if got := m.Infer(emb); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Infer: %v", got)
	}
	for _, w := range []int{1, 2, 5} {
		if got := m.InferBeam(emb, w); len(got) != 1 || got[0] != 0 {
			t.Fatalf("InferBeam(%d): %v", w, got)
		}
	}
	rng := rand.New(rand.NewSource(49))
	if got := m.InferSample(emb, rng); len(got) != 1 || got[0] != 0 {
		t.Fatalf("InferSample: %v", got)
	}
	res := m.Decode(ad.NewTape(), emb, true, rng)
	if len(res.Seq) != 1 || res.Seq[0] != 0 {
		t.Fatalf("Decode: %v", res.Seq)
	}
}

// FuzzReadWeights throws corrupted, truncated and mutated weight files
// at the reader. The invariant the online promotion path depends on:
// ReadWeights either returns a usable model or an error — it never
// panics, and a returned model survives a decode.
func FuzzReadWeights(f *testing.F) {
	m := New(Config{InputDim: 5, Hidden: 4, Seed: 50})
	var versioned bytes.Buffer
	if err := WriteWeights(&versioned, m); err != nil {
		f.Fatal(err)
	}
	f.Add(versioned.Bytes())
	f.Add(headerlessBytes(f, m))
	f.Add(versioned.Bytes()[:len(versioned.Bytes())/2])
	f.Add(append(append([]byte(nil), weightsMagic...), 7))
	f.Add([]byte("not a model at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadWeights(bytes.NewReader(data))
		if err != nil {
			return
		}
		emb := [][]float64{make([]float64, m.Cfg.InputDim)}
		if got := m.Infer(emb); len(got) != 1 {
			t.Fatalf("accepted model emitted %v for a single node", got)
		}
	})
}
