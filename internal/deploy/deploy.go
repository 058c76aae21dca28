// Package deploy reproduces the paper's deployment flow (Figure 1a,
// step 4): post-training int8 quantization of each operator's weights
// (the TFLite/TOCO role), extraction of one sub-model per pipeline stage,
// and a binary serialization format with a loader — the artifacts that
// would be flashed onto each Edge TPU in the physical system.
package deploy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	"respect/internal/graph"
	"respect/internal/sched"
)

// QuantParams is an asymmetric int8 affine quantization: real ≈
// Scale·(q − ZeroPoint).
type QuantParams struct {
	Scale     float64
	ZeroPoint int8
}

// Quantize maps float32 weights onto int8 with per-tensor affine
// parameters chosen from the observed min/max (TFLite post-training
// quantization).
func Quantize(w []float32) ([]int8, QuantParams) {
	if len(w) == 0 {
		return nil, QuantParams{Scale: 1}
	}
	lo, hi := float64(w[0]), float64(w[0])
	for _, v := range w {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	// The representable range must include zero for zero-padding to be
	// exact (TFLite requirement).
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	scale := (hi - lo) / 255
	if scale == 0 {
		scale = 1
	}
	zp := int8(math.Round(-128 - lo/scale))
	q := make([]int8, len(w))
	for i, v := range w {
		x := math.Round(float64(v)/scale) + float64(zp)
		if x > 127 {
			x = 127
		}
		if x < -128 {
			x = -128
		}
		q[i] = int8(x)
	}
	return q, QuantParams{Scale: scale, ZeroPoint: zp}
}

// Dequantize inverts Quantize up to rounding error.
func Dequantize(q []int8, p QuantParams) []float32 {
	out := make([]float32, len(q))
	for i, v := range q {
		out[i] = float32(p.Scale * float64(int(v)-int(p.ZeroPoint)))
	}
	return out
}

// SyntheticWeights deterministically generates the float32 weight tensor
// of a node (the repo has no proprietary checkpoints; scheduling and
// deployment only need tensors of the right size).
func SyntheticWeights(g *graph.Graph, v int) []float32 {
	n := g.Node(v)
	count := int(n.ParamBytes) // one int8 weight per byte post-quantization
	rng := rand.New(rand.NewSource(int64(v)*1_000_003 + int64(g.NumNodes())))
	w := make([]float32, count)
	for i := range w {
		w[i] = float32(rng.NormFloat64() * 0.05)
	}
	return w
}

// TensorRef names an activation tensor by its producing node.
type TensorRef struct {
	Node  int
	Bytes int64
}

// Op is one operator inside a sub-model.
type Op struct {
	Node    int
	Kind    graph.OpKind
	Name    string
	Weights []int8
	Quant   QuantParams
	MACs    int64
}

// Submodel is the per-stage executable unit.
type Submodel struct {
	ModelName string
	Stage     int
	NumStages int
	Ops       []Op
	// Inputs are tensors produced by earlier stages, Outputs tensors
	// consumed by later stages (or the pipeline output).
	Inputs  []TensorRef
	Outputs []TensorRef
}

// ParamBytes returns the total quantized weight bytes of the sub-model.
func (sm *Submodel) ParamBytes() int64 {
	var t int64
	for _, op := range sm.Ops {
		t += int64(len(op.Weights))
	}
	return t
}

// Partition splits g under schedule s into one sub-model per stage,
// quantizing each node's (synthetic) weights. The schedule must be valid.
func Partition(g *graph.Graph, s sched.Schedule) ([]Submodel, error) {
	if err := s.Validate(g); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	subs := make([]Submodel, s.NumStages)
	for k := range subs {
		subs[k] = Submodel{ModelName: g.Name, Stage: k, NumStages: s.NumStages}
	}
	for _, v := range g.Topo() {
		k := s.Stage[v]
		node := g.Node(v)
		w := SyntheticWeights(g, v)
		q, qp := Quantize(w)
		subs[k].Ops = append(subs[k].Ops, Op{
			Node: v, Kind: node.Kind, Name: node.Name,
			Weights: q, Quant: qp, MACs: node.MACs,
		})
		crossesOut := false
		for _, w := range g.Succ(v) {
			if s.Stage[w] != k {
				crossesOut = true
				subs[s.Stage[w]].addInput(TensorRef{Node: v, Bytes: node.OutBytes})
			}
		}
		if crossesOut || len(g.Succ(v)) == 0 {
			subs[k].Outputs = append(subs[k].Outputs, TensorRef{Node: v, Bytes: node.OutBytes})
		}
	}
	return subs, nil
}

func (sm *Submodel) addInput(ref TensorRef) {
	for _, in := range sm.Inputs {
		if in.Node == ref.Node {
			return
		}
	}
	sm.Inputs = append(sm.Inputs, ref)
}

// Binary format: magic, version, header fields, op table with weight
// blobs, tensor tables, trailing CRC32 of everything before it.
const (
	magic   = 0x52535054 // "RSPT"
	version = 1
)

// ErrCorrupt reports a malformed or damaged sub-model image.
var ErrCorrupt = errors.New("deploy: corrupt submodel image")

// Write serializes the sub-model.
func (sm *Submodel) Write(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeU64 := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s)
	}

	writeU32(magic)
	writeU32(version)
	writeStr(sm.ModelName)
	writeU32(uint32(sm.Stage))
	writeU32(uint32(sm.NumStages))
	writeU32(uint32(len(sm.Ops)))
	for _, op := range sm.Ops {
		writeU32(uint32(op.Node))
		writeU32(uint32(op.Kind))
		writeStr(op.Name)
		writeU64(uint64(op.MACs))
		binary.Write(bw, binary.LittleEndian, op.Quant.Scale)
		bw.WriteByte(byte(op.Quant.ZeroPoint))
		writeU32(uint32(len(op.Weights)))
		for _, q := range op.Weights {
			bw.WriteByte(byte(q))
		}
	}
	writeRefs := func(refs []TensorRef) {
		writeU32(uint32(len(refs)))
		for _, r := range refs {
			writeU32(uint32(r.Node))
			writeU64(uint64(r.Bytes))
		}
	}
	writeRefs(sm.Inputs)
	writeRefs(sm.Outputs)
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Read parses a sub-model image, verifying structure and checksum.
func Read(r io.Reader) (*Submodel, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(img) < 12 {
		return nil, fmt.Errorf("%w: image too short", ErrCorrupt)
	}
	payload, tail := img[:len(img)-4], img[len(img)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	br := bufio.NewReader(bytes.NewReader(payload))

	var firstErr error
	readU32 := func() uint32 {
		var v uint32
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	readU64 := func() uint64 {
		var v uint64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	readStr := func() string {
		n := readU32()
		if firstErr != nil || n > 1<<20 {
			if firstErr == nil {
				firstErr = ErrCorrupt
			}
			return ""
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil && firstErr == nil {
			firstErr = err
		}
		return string(buf)
	}

	if readU32() != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := readU32(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	sm := &Submodel{}
	sm.ModelName = readStr()
	sm.Stage = int(readU32())
	sm.NumStages = int(readU32())
	nOps := readU32()
	if firstErr != nil || nOps > 1<<20 {
		return nil, fmt.Errorf("%w: implausible op count", ErrCorrupt)
	}
	for i := uint32(0); i < nOps; i++ {
		var op Op
		op.Node = int(readU32())
		op.Kind = graph.OpKind(readU32())
		op.Name = readStr()
		op.MACs = int64(readU64())
		if err := binary.Read(br, binary.LittleEndian, &op.Quant.Scale); err != nil && firstErr == nil {
			firstErr = err
		}
		zb, err := br.ReadByte()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		op.Quant.ZeroPoint = int8(zb)
		wn := readU32()
		if firstErr != nil || wn > 1<<28 {
			return nil, fmt.Errorf("%w: implausible weight size", ErrCorrupt)
		}
		raw := make([]byte, wn)
		if _, err := io.ReadFull(br, raw); err != nil && firstErr == nil {
			firstErr = err
		}
		op.Weights = make([]int8, wn)
		for j, b := range raw {
			op.Weights[j] = int8(b)
		}
		sm.Ops = append(sm.Ops, op)
		if firstErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, firstErr)
		}
	}
	readRefs := func() []TensorRef {
		n := readU32()
		if firstErr != nil || n > 1<<20 {
			if firstErr == nil {
				firstErr = ErrCorrupt
			}
			return nil
		}
		refs := make([]TensorRef, n)
		for i := range refs {
			refs[i].Node = int(readU32())
			refs[i].Bytes = int64(readU64())
		}
		return refs
	}
	sm.Inputs = readRefs()
	sm.Outputs = readRefs()
	if firstErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, firstErr)
	}
	return sm, nil
}
