package deploy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"respect/internal/models"
	"respect/internal/sched"
)

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float32, 4096)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	q, p := Quantize(w)
	d := Dequantize(q, p)
	for i := range w {
		if err := math.Abs(float64(w[i] - d[i])); err > p.Scale/2+1e-9 {
			t.Fatalf("weight %d: |%v - %v| > scale/2 (%v)", i, w[i], d[i], p.Scale/2)
		}
	}
}

func TestQuantizeZeroExact(t *testing.T) {
	// Zero must quantize exactly (padding correctness).
	w := []float32{0, 1.5, -0.3, 0}
	q, p := Quantize(w)
	d := Dequantize(q, p)
	if d[0] != 0 || d[3] != 0 {
		t.Fatalf("zero not exactly representable: %v", d)
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	if q, p := Quantize(nil); q != nil || p.Scale != 1 {
		t.Fatal("nil weights mishandled")
	}
	q, p := Quantize([]float32{0, 0, 0})
	d := Dequantize(q, p)
	for _, v := range d {
		if v != 0 {
			t.Fatal("constant-zero tensor mangled")
		}
	}
	// All-positive tensor: range extended to include zero.
	q2, p2 := Quantize([]float32{3, 4, 5})
	d2 := Dequantize(q2, p2)
	for i, want := range []float32{3, 4, 5} {
		if math.Abs(float64(d2[i]-want)) > p2.Scale/2+1e-9 {
			t.Fatalf("positive tensor off: %v vs %v", d2[i], want)
		}
	}
}

func TestQuickQuantizeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float32, 1+rng.Intn(100))
		for i := range w {
			w[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		q, p := Quantize(w)
		d := Dequantize(q, p)
		for i := range w {
			if math.Abs(float64(w[i]-d[i])) > p.Scale/2+1e-6*p.Scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStructure(t *testing.T) {
	g := models.MustLoad("Xception")
	s := sched.PostProcess(g, sched.GreedyBalanced(g, 4))
	subs, err := Partition(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("%d submodels", len(subs))
	}
	totalOps := 0
	var totalParams int64
	for k, sm := range subs {
		if sm.Stage != k || sm.NumStages != 4 || sm.ModelName != "Xception" {
			t.Fatalf("submodel %d header wrong: %+v", k, sm)
		}
		totalOps += len(sm.Ops)
		totalParams += sm.ParamBytes()
	}
	if totalOps != g.NumNodes() {
		t.Fatalf("ops %d != |V| %d", totalOps, g.NumNodes())
	}
	if totalParams != g.TotalParamBytes() {
		t.Fatalf("params %d != graph %d", totalParams, g.TotalParamBytes())
	}
	// Every stage boundary consumer matches a producer's output.
	for k := 1; k < 4; k++ {
		for _, in := range subs[k].Inputs {
			found := false
			for _, out := range subs[s.Stage[in.Node]].Outputs {
				if out.Node == in.Node {
					found = true
				}
			}
			if !found {
				t.Fatalf("stage %d input %d has no producing output", k, in.Node)
			}
		}
	}
}

func TestPartitionRejectsInvalid(t *testing.T) {
	g := models.MustLoad("ResNet50")
	s := sched.NewSchedule(g.NumNodes(), 2)
	s.Stage[0] = 1 // input after its consumers
	if _, err := Partition(g, s); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := models.MustLoad("ResNet50")
	s := sched.PostProcess(g, sched.GreedyBalanced(g, 3))
	subs, err := Partition(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range subs {
		var buf bytes.Buffer
		if err := sm.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.ModelName != sm.ModelName || got.Stage != sm.Stage ||
			len(got.Ops) != len(sm.Ops) ||
			len(got.Inputs) != len(sm.Inputs) || len(got.Outputs) != len(sm.Outputs) {
			t.Fatalf("round trip structure mismatch")
		}
		for i := range sm.Ops {
			a, b := sm.Ops[i], got.Ops[i]
			if a.Node != b.Node || a.Kind != b.Kind || a.Name != b.Name ||
				a.MACs != b.MACs || a.Quant != b.Quant || len(a.Weights) != len(b.Weights) {
				t.Fatalf("op %d mismatch", i)
			}
			for j := range a.Weights {
				if a.Weights[j] != b.Weights[j] {
					t.Fatalf("op %d weight %d mismatch", i, j)
				}
			}
		}
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	g := models.MustLoad("Xception")
	s := sched.PostProcess(g, sched.GreedyBalanced(g, 2))
	subs, _ := Partition(g, s)
	var buf bytes.Buffer
	if err := subs[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Flip a byte in the middle: checksum must catch it.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit flip undetected")
	}
	// Truncation.
	if _, err := Read(bytes.NewReader(img[:len(img)/3])); err == nil {
		t.Fatal("truncation undetected")
	}
	// Garbage magic.
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("bad magic undetected")
	}
}

func TestSyntheticWeightsDeterministic(t *testing.T) {
	g := models.MustLoad("Xception")
	a := SyntheticWeights(g, 1)
	b := SyntheticWeights(g, 1)
	if len(a) != int(g.Node(1).ParamBytes) {
		t.Fatalf("weight count %d != param bytes %d", len(a), g.Node(1).ParamBytes)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic weights")
		}
	}
}
