package workload

import (
	"errors"
	"fmt"
)

// LayerType distinguishes the operator classes that map differently onto the
// six-dimensional loop nest.
type LayerType uint8

const (
	// Conv is a standard 2-D convolution: every output channel reduces over
	// every input channel.
	Conv LayerType = iota
	// DepthwiseConv convolves each channel independently (C is a channel
	// multiplier of 1; the input tensor depends on K instead of C).
	DepthwiseConv
	// GEMM is a dense matrix multiply M×N×K' expressed as K=M, C=K', Y=N,
	// X=R=S=1. Fully-connected, attention and embedding-MLP layers use it.
	GEMM
)

// String returns a short human-readable operator name.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "CONV"
	case DepthwiseConv:
		return "DSCONV"
	case GEMM:
		return "GEMM"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is one operator instance of a DNN model in the K,C,Y,X,R,S space.
// Y and X are *output* spatial extents; the input tile implied by an output
// tile of (y, x) with kernel (r, s) and stride (sy, sx) is
// ((y-1)*sy + r) × ((x-1)*sx + s).
type Layer struct {
	Name    string
	Type    LayerType
	K       int // output channels (GEMM: M)
	C       int // input channels / reduction (GEMM: K'; DSCONV: 1)
	Y       int // output rows (GEMM: N)
	X       int // output cols
	R       int // kernel rows
	S       int // kernel cols
	StrideY int // vertical stride (defaults to 1 when 0)
	StrideX int // horizontal stride (defaults to 1 when 0)
	Count   int // multiplicity of identical layers in the model (≥ 1)
}

// Dims returns the layer bounds as a Vector.
func (l Layer) Dims() Vector {
	return Vector{l.K, l.C, l.Y, l.X, l.R, l.S}
}

// Dim returns the bound of a single dimension.
func (l Layer) Dim(d Dim) int { return l.Dims()[d] }

// Strides returns the (possibly defaulted) strides.
func (l Layer) Strides() (sy, sx int) {
	sy, sx = l.StrideY, l.StrideX
	if sy == 0 {
		sy = 1
	}
	if sx == 0 {
		sx = 1
	}
	return sy, sx
}

// Multiplicity returns Count, defaulting to 1.
func (l Layer) Multiplicity() int {
	if l.Count < 1 {
		return 1
	}
	return l.Count
}

// MACs returns the multiply-accumulate count of one instance of the layer.
func (l Layer) MACs() int64 {
	return l.Dims().Product()
}

// TensorDims reports which loop dimensions each operand tensor depends on.
// This relevance drives both buffer sizing and reuse analysis.
//
//	Conv:   W→{K,C,R,S}  I→{C,Y,X,R,S}  O→{K,Y,X}
//	DSConv: W→{K,R,S}    I→{K,Y,X,R,S}  O→{K,Y,X}   (C≡1)
//	GEMM:   same as Conv with Y=N, X=R=S=1
func (l Layer) TensorDims() (w, in, out [NumDims]bool) {
	switch l.Type {
	case DepthwiseConv:
		w = dimSet(K, R, S)
		in = dimSet(K, Y, X, R, S)
		out = dimSet(K, Y, X)
	default:
		w = dimSet(K, C, R, S)
		in = dimSet(C, Y, X, R, S)
		out = dimSet(K, Y, X)
	}
	return w, in, out
}

func dimSet(ds ...Dim) [NumDims]bool {
	var s [NumDims]bool
	for _, d := range ds {
		s[d] = true
	}
	return s
}

// WeightSize returns the number of weight elements of one layer instance.
func (l Layer) WeightSize() int64 {
	if l.Type == DepthwiseConv {
		return int64(l.K) * int64(l.R) * int64(l.S)
	}
	return int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
}

// InputSize returns the number of input activation elements.
func (l Layer) InputSize() int64 {
	sy, sx := l.Strides()
	iy := int64((l.Y-1)*sy + l.R)
	ix := int64((l.X-1)*sx + l.S)
	ch := int64(l.C)
	if l.Type == DepthwiseConv {
		ch = int64(l.K)
	}
	return ch * iy * ix
}

// OutputSize returns the number of output elements.
func (l Layer) OutputSize() int64 {
	return int64(l.K) * int64(l.Y) * int64(l.X)
}

// MaxExtent bounds every layer dimension, stride and count, and maxMACs
// one layer's multiply-accumulates times its count. Both sit far above
// any real network (the zoo's largest extent is 25,088 channels, its
// largest layer under 2^34 MACs) and keep a mistyped or hostile workload
// from overflowing the cost model's int64 arithmetic or stalling
// per-extent work such as divisor enumeration. The analysis key packs two
// tiles per 64-bit word on this bound (see evalstore.ProbeKey).
const (
	MaxExtent = 1 << 24
	maxMACs   = 1 << 50
)

// Validate checks that all bounds are positive, within MaxExtent and
// maxMACs, and type-consistent.
func (l Layer) Validate() error {
	if l.Name == "" {
		return errors.New("workload: layer has empty name")
	}
	d := l.Dims()
	macs := float64(l.Multiplicity())
	for _, dim := range AllDims {
		if d[dim] < 1 || d[dim] > MaxExtent {
			return fmt.Errorf("workload: layer %s: dimension %s = %d (must be in [1, %d])", l.Name, dim, d[dim], MaxExtent)
		}
		macs *= float64(d[dim])
	}
	if l.StrideY > MaxExtent || l.StrideX > MaxExtent || l.Count > MaxExtent {
		return fmt.Errorf("workload: layer %s: stride or count above %d", l.Name, MaxExtent)
	}
	if macs > maxMACs {
		return fmt.Errorf("workload: layer %s: %g MACs exceeds %g", l.Name, macs, float64(maxMACs))
	}
	if l.Type == DepthwiseConv && l.C != 1 {
		return fmt.Errorf("workload: depthwise layer %s must have C=1, got %d", l.Name, l.C)
	}
	if l.Type == GEMM && (l.R != 1 || l.S != 1 || l.X != 1) {
		return fmt.Errorf("workload: GEMM layer %s must have X=R=S=1", l.Name)
	}
	if l.StrideY < 0 || l.StrideX < 0 {
		return fmt.Errorf("workload: layer %s has negative stride", l.Name)
	}
	return nil
}

// String summarises the layer.
func (l Layer) String() string {
	return fmt.Sprintf("%s %s K%d C%d Y%d X%d R%d S%d x%d",
		l.Name, l.Type, l.K, l.C, l.Y, l.X, l.R, l.S, l.Multiplicity())
}

// Model is an ordered list of layers with a name.
type Model struct {
	Name   string
	Layers []Layer
}

// Validate checks every layer.
func (m Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("workload: model %s has no layers", m.Name)
	}
	for _, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("model %s: %w", m.Name, err)
		}
	}
	return nil
}

// MACs returns the total multiply-accumulate count across all layers,
// honouring per-layer multiplicity.
func (m Model) MACs() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.MACs() * int64(l.Multiplicity())
	}
	return total
}

// UniqueLayers merges layers with identical shape (type and all bounds and
// strides) into one entry whose Count is the summed multiplicity. Search
// cost scales with unique layers, not raw depth, so all optimizers operate
// on this reduced list; total model latency still weights by Count.
func (m Model) UniqueLayers() []Layer {
	type key struct {
		t            LayerType
		k, c, y, x   int
		r, s, sy, sx int
	}
	index := make(map[key]int)
	var out []Layer
	for _, l := range m.Layers {
		sy, sx := l.Strides()
		k := key{l.Type, l.K, l.C, l.Y, l.X, l.R, l.S, sy, sx}
		if i, ok := index[k]; ok {
			out[i].Count += l.Multiplicity()
			continue
		}
		dup := l
		dup.Count = l.Multiplicity()
		index[k] = len(out)
		out = append(out, dup)
	}
	return out
}
