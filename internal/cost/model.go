// Package cost is the analytical DNN-accelerator performance model that
// stands in for MAESTRO (Kwon et al., MICRO 2019) in this reproduction.
//
// Given a hardware configuration (PE hierarchy + bandwidths), a mapping
// (per-level tiles, loop order, spatial dims) and a layer, it computes
// latency, data movement per memory level, minimum buffer requirements and
// energy event counts, using the standard data-centric analysis:
//
//   - per-level temporal trip counts with spatial folding of the
//     parallelized dimension;
//   - tensor refetch counts from the stationarity rule — a tensor is
//     reloaded once per iteration of every loop at or outside its innermost
//     relevant loop;
//   - partial-sum read-modify-write traffic when a reduction loop sits
//     outside the innermost output-relevant loop;
//   - per-level roofline latency: iterations × max(child latency,
//     transfer time), with a DRAM bandwidth floor at the top;
//   - minimum buffer requirement = double-buffered spatial-union footprint
//     of the child tiles (the paper's Fig. 3(f), with input halos).
package cost

import (
	"fmt"
	"math"
	"sync"

	"digamma/internal/arch"
	"digamma/internal/mapping"
	"digamma/internal/workload"
)

// Tensor identifies an operand of a layer.
type Tensor uint8

// The three operand tensors.
const (
	Weights Tensor = iota
	Inputs
	Outputs
	NumTensors
)

var tensorNames = [NumTensors]string{"W", "I", "O"}

// String returns the single-letter tensor name used in the paper.
func (t Tensor) String() string {
	if t >= NumTensors {
		return fmt.Sprintf("Tensor(%d)", uint8(t))
	}
	return tensorNames[t]
}

// BufferReq is a per-tensor buffer requirement in words.
type BufferReq struct {
	Weights float64
	Inputs  float64
	Outputs float64
}

// Total returns the summed requirement in words.
func (b BufferReq) Total() float64 { return b.Weights + b.Inputs + b.Outputs }

// LevelStats captures the analysis of one hierarchy level.
type LevelStats struct {
	Trips        workload.Vector // temporal trip counts (spatial dim holds folds)
	Fanout       int             // available sub-units
	Occupancy    int             // sub-units actually used (≤ Fanout)
	Iterations   float64         // product of trips = loop iterations per parent pass
	IngressWords float64         // W+I words into this level's children per parent pass
	EgressWords  float64         // O words out of this level per parent pass
	BufferWords  BufferReq       // minimum (single-copy) buffer requirement at this level
}

// Result is the full analysis of one layer on one design point.
type Result struct {
	Cycles      float64      // total latency in cycles
	ComputeOnly float64      // pure-compute roofline (MACs / PEs) for reference
	MappedMACs  float64      // MACs charged including ragged-tile padding
	DRAMWords   float64      // words crossing the chip boundary
	NoCWords    float64      // words crossing all on-chip level boundaries
	L1Words     float64      // words through per-PE buffers (incl. operand reads)
	L2Words     float64      // words through shared buffers
	Levels      []LevelStats // per-level detail, inner-first
	Utilization float64      // effective PE utilization = ideal / achieved cycles
}

// BufReqBytes returns the minimum per-instance buffer capacity (bytes) for
// each level, inner-first, including the double-buffering factor. This is
// the paper's buffer allocation strategy: the co-opt framework sizes
// buffers to exactly these values.
func (r *Result) BufReqBytes(bytesPerWord int) []int64 {
	out := make([]int64, len(r.Levels))
	for i, lv := range r.Levels {
		out[i] = int64(math.Ceil(lv.BufferWords.Total())) * 2 * int64(bytesPerWord)
	}
	return out
}

// EnergyPJ converts the movement counters into dynamic energy.
func (r *Result) EnergyPJ(em arch.EnergyModel) float64 {
	return r.MappedMACs*em.MACpJ +
		r.L1Words*em.L1pJ +
		r.L2Words*em.L2pJ +
		r.NoCWords*em.NoCpJ +
		r.DRAMWords*em.DRAMpJ
}

// resultBuf2 / resultBuf fuse the Result header with backing storage for
// the Levels slice so both come from a single allocation (or, in
// ScoreTrusted, one stack buffer). The canonical 2-level encoding
// dominates, so its results come from slabs; deeper ones (up to
// MaxLevels) take one fused allocation each.
type resultBuf2 struct {
	res    Result
	levels [2]LevelStats
}

type resultBuf struct {
	res    Result
	levels [MaxLevels]LevelStats
}

// resultSlab hands out 2-level result buffers carved from slabs: one
// allocation covers resultSlabLen analyses. Searches on a non-default
// fidelity tier get a Result from every Backend.Analyze and keep only its
// Score, so a slab is garbage soon after its last result is scored; the
// slab spares the collector one allocation per analysis. Arenas cycle
// through a sync.Pool so concurrent analyzers never share a
// partially-filled slab.
type resultSlab struct {
	buf  []resultBuf2
	next int
}

const resultSlabLen = 64

var resultSlabs = sync.Pool{New: func() any { return &resultSlab{} }}

// newResult allocates a Result with an L-level detail slice, fusing the two
// allocations for the common shallow hierarchies. The dominant 2-level
// case (the canonical encoding) is slab-allocated: a search on a backend
// creates thousands of results, and one slab allocation per 64 of them
// keeps the garbage collector off the critical path.
func newResult(L int) *Result {
	switch {
	case L <= 2:
		a := resultSlabs.Get().(*resultSlab)
		if a.next == len(a.buf) {
			a.buf = make([]resultBuf2, resultSlabLen)
			a.next = 0
		}
		buf := &a.buf[a.next]
		a.next++
		resultSlabs.Put(a)
		buf.res.Levels = buf.levels[:L]
		return &buf.res
	case L <= MaxLevels:
		buf := &resultBuf{}
		buf.res.Levels = buf.levels[:L]
		return &buf.res
	default:
		return &Result{Levels: make([]LevelStats, L)}
	}
}

// relevance returns, per tensor, which dims the tensor depends on.
func relevance(layer workload.Layer) [NumTensors][workload.NumDims]bool {
	w, in, out := layer.TensorDims()
	return [NumTensors][workload.NumDims]bool{Weights: w, Inputs: in, Outputs: out}
}

// footprint returns the tensor footprint in words for the given effective
// tile extents, applying the input halo transform. It runs six times per
// level per analysis, so the stride/halo parameters come precomputed from
// the Analyzer.
func (a *Analyzer) footprint(rel [workload.NumDims]bool, t Tensor, tile workload.Vector) float64 {
	if t == Inputs {
		ch := tile[workload.C]
		if a.depthwise {
			ch = tile[workload.K]
		}
		iy := (tile[workload.Y]-1)*a.strideY + tile[workload.R]
		ix := (tile[workload.X]-1)*a.strideX + tile[workload.S]
		return float64(ch) * float64(iy) * float64(ix)
	}
	fp := 1.0
	for _, d := range workload.AllDims {
		if rel[d] {
			fp *= float64(tile[d])
		}
	}
	return fp
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Analyzer carries the layer-invariant inputs of the performance model —
// tensor relevance, full dims, stride/halo parameters and the ideal MAC
// count — precomputed once so that repeated analyses of the same layer
// (the genetic search evaluates each unique layer thousands of times) skip
// re-deriving them per call.
type Analyzer struct {
	Layer workload.Layer

	rel       [NumTensors][workload.NumDims]bool
	full      workload.Vector
	macs      float64
	strideY   int
	strideX   int
	depthwise bool
	lbWords   float64 // minimal chip-boundary words (see bound.go)
}

// NewAnalyzer precomputes the analysis constants of one layer, including
// the roofline-bound traffic floor LowerBound screens with.
func NewAnalyzer(layer workload.Layer) Analyzer {
	a := newAnalyzer(layer)
	a.lbWords = lowerBoundWords(&a)
	return a
}

// newAnalyzer fills only the constants the analytical model reads — the
// one-shot Analyze path builds a throwaway Analyzer per call and must not
// pay for bound constants it never uses.
func newAnalyzer(layer workload.Layer) Analyzer {
	sy, sx := layer.Strides()
	return Analyzer{
		Layer:     layer,
		rel:       relevance(layer),
		full:      layer.Dims(),
		macs:      float64(layer.MACs()),
		strideY:   sy,
		strideX:   sx,
		depthwise: layer.Type == workload.DepthwiseConv,
	}
}

// Analyze evaluates one layer on the design point (hw, m). The mapping must
// have exactly hw.Levels() levels and be legal for the layer (callers
// should Repair first); Analyze returns an error otherwise.
func Analyze(hw arch.HW, m mapping.Mapping, layer workload.Layer) (*Result, error) {
	a := newAnalyzer(layer)
	return a.Analyze(hw, m)
}

// Analyze validates the design point and scores it.
func (a *Analyzer) Analyze(hw arch.HW, m mapping.Mapping) (*Result, error) {
	hw = hw.Defaults()
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(a.Layer); err != nil {
		return nil, err
	}
	return a.AnalyzeTrusted(hw, m)
}

// AnalyzeTrusted scores a design point without re-validating it: hw must
// already be Defaults()-normalized and structurally valid, and m legal for
// the layer (exactly what a Space.Repair guarantees). The co-opt framework
// uses this on its hot path, where every genome is repaired before
// evaluation; everyone else should call Analyze.
func (a *Analyzer) AnalyzeTrusted(hw arch.HW, m mapping.Mapping) (*Result, error) {
	if len(m.Levels) != hw.Levels() {
		return nil, fmt.Errorf("cost: mapping has %d levels, hw has %d", len(m.Levels), hw.Levels())
	}
	res := newResult(len(m.Levels))
	a.analyze(res, hw, m)
	return res, nil
}

// ScoreTrusted is AnalyzeTrusted keeping only the Score, under the same
// contract. The analysis runs into a buffer on the stack, so the search
// hot path allocates nothing for the Result it does not keep.
func (a *Analyzer) ScoreTrusted(hw arch.HW, m mapping.Mapping) (Score, error) {
	L := len(m.Levels)
	if L != hw.Levels() {
		return Score{}, fmt.Errorf("cost: mapping has %d levels, hw has %d", L, hw.Levels())
	}
	if err := CheckDepth(L); err != nil {
		return Score{}, err
	}
	var buf resultBuf
	buf.res.Levels = buf.levels[:L]
	a.analyze(&buf.res, hw, m)
	return buf.res.Score(), nil
}

// analyze fills res, whose Levels slice holds one zeroed entry per
// mapping level, with the analysis of (hw, m).
func (a *Analyzer) analyze(res *Result, hw arch.HW, m mapping.Mapping) {
	L := len(m.Levels)
	rel := a.rel
	full := a.full

	// Per-level structural analysis.
	for l := 0; l < L; l++ {
		lv := &m.Levels[l]
		parent := full
		if l+1 < L {
			parent = m.Levels[l+1].Tiles
		}
		st := &res.Levels[l]
		st.Fanout = hw.Fanouts[l]

		iters := 1.0
		for _, d := range workload.AllDims {
			chunks := ceilDiv(parent[d], lv.Tiles[d])
			if d == lv.Spatial {
				st.Occupancy = chunks
				if st.Occupancy > st.Fanout {
					st.Occupancy = st.Fanout
				}
				st.Trips[d] = ceilDiv(chunks, st.Fanout)
			} else {
				st.Trips[d] = chunks
			}
			iters *= float64(st.Trips[d])
		}
		st.Iterations = iters

		// Effective (spatial-union) tile extents seen by this level's buffer.
		eff := lv.Tiles
		eff[lv.Spatial] *= st.Occupancy
		if eff[lv.Spatial] > parent[lv.Spatial] {
			eff[lv.Spatial] = parent[lv.Spatial]
		}

		// Minimum single-copy buffer requirement at this level. Level 0 is
		// the per-PE L1 and holds only the PE's own tile; outer levels hold
		// the spatial union of their children's tiles.
		bufTile := lv.Tiles
		if l > 0 {
			bufTile = eff
		}
		st.BufferWords = BufferReq{
			Weights: a.footprint(rel[Weights], Weights, bufTile),
			Inputs:  a.footprint(rel[Inputs], Inputs, bufTile),
			Outputs: a.footprint(rel[Outputs], Outputs, bufTile),
		}

		// Stationarity rule for all three tensors in one pass over the loop
		// order (outermost first): a tensor is reloaded once per iteration
		// of every loop at or outside its innermost relevant loop, i.e. its
		// load count is the trip-count prefix product at that position.
		// Trips of 1 multiply exactly, so skipping them is bit-identical.
		loadsW, loadsI, touches := 1.0, 1.0, 1.0
		prefix := 1.0
		for _, d := range lv.Order {
			if st.Trips[d] > 1 {
				prefix *= float64(st.Trips[d])
				if rel[Weights][d] {
					loadsW = prefix
				}
				if rel[Inputs][d] {
					loadsI = prefix
				}
				if rel[Outputs][d] {
					touches = prefix
				}
			}
		}

		// Ingress traffic (weights + inputs).
		st.IngressWords += loadsW * a.footprint(rel[Weights], Weights, eff)
		st.IngressWords += loadsI * a.footprint(rel[Inputs], Inputs, eff)

		// Egress traffic (outputs) with partial-sum read-modify-write.
		finalWrites := 1.0
		for _, d := range workload.AllDims {
			if rel[Outputs][d] {
				finalWrites *= float64(st.Trips[d])
			}
		}
		revisits := touches / finalWrites
		if revisits < 1 {
			revisits = 1
		}
		st.EgressWords = finalWrites * (2*revisits - 1) * a.footprint(rel[Outputs], Outputs, eff)
	}

	// Latency recursion, inner to outer.
	lat := float64(m.Levels[0].Tiles.Product()) // cycles per PE tile (1 MAC/cycle)
	peTileMACs := lat
	for l := 0; l < L; l++ {
		st := &res.Levels[l]
		xfer := (st.IngressWords + st.EgressWords) / st.Iterations / hw.LevelBandwidth(l)
		step := lat
		if xfer > step {
			step = xfer
		}
		lat = st.Iterations*step + xfer // + pipeline fill of the first tile
	}

	// Chip-boundary traffic = the top level's traffic (the global buffer is
	// minimum-sized, so every refetch reaches DRAM). The bandwidth floor is
	// applied only when off-chip bandwidth is modeled; by default latency
	// follows MAESTRO's overlapped-prefetch assumption and DRAM traffic
	// affects energy only.
	top := res.Levels[L-1]
	res.DRAMWords = top.IngressWords + top.EgressWords
	if hw.DRAMWordsPerCycle > 0 {
		if floor := res.DRAMWords / hw.DRAMWordsPerCycle; floor > lat {
			lat = floor
		}
	}
	res.Cycles = lat

	// Global movement totals. passes(l) = times one level-l group runs its
	// loop space; groups(l) = occupied level-(l+1) unit count.
	passes := 1.0
	groups := 1.0
	for l := L - 1; l >= 0; l-- {
		st := &res.Levels[l]
		levelWords := (st.IngressWords + st.EgressWords) * passes * groups
		res.NoCWords += levelWords * hw.LevelHops(l)
		if l == 0 {
			res.L1Words += levelWords
		} else {
			res.L2Words += levelWords
		}
		passes *= st.Iterations
		groups *= float64(st.Occupancy)
	}
	res.MappedMACs = peTileMACs * passes * groups // groups = Π occupancies
	// Operand reads feeding the MACs from L1 (weight + input per MAC;
	// partial sums accumulate in the PE register).
	res.L1Words += 2 * res.MappedMACs

	totalPEs := float64(hw.NumPEs())
	res.ComputeOnly = a.macs / totalPEs
	if res.Cycles > 0 {
		res.Utilization = a.macs / (res.Cycles * totalPEs)
	}
}

// FitsBuffers reports whether the analysis' double-buffered requirements
// fit the capacities of hw at every level, returning the first violating
// level (or -1). Used by the Fixed-HW (GAMMA) flow, where buffers are a
// constraint rather than a derived quantity.
func (r *Result) FitsBuffers(hw arch.HW) (bool, int) {
	req := r.BufReqBytes(hw.Defaults().BytesPerWord)
	for l, b := range req {
		if l < len(hw.BufBytes) && b > hw.BufBytes[l] {
			return false, l
		}
	}
	return true, -1
}
