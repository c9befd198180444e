package coopt

// EvalPool hands out Evaluation buffers for the search hot path: fresh
// buffers come from chunked slabs (one allocation amortized over many
// evaluations) and dead buffers — individuals dropped from a population —
// are recycled through a freelist, so a steady-state generation loop
// re-scores into the same memory instead of feeding the garbage
// collector ~3 allocations per design point.
//
// The pool is deliberately NOT safe for concurrent use: the engine gives
// each island its own pool and acquires every buffer serially before
// fanning a batch out, which keeps the hot path free of pool locks.
// The caller enforces the recycling rule: recycle an Evaluation only when
// nothing else can reach it. In the engine that means individuals dropped
// from their population — at install time, or overwritten by a migrant,
// which arrives as bytes and is rebuilt into the receiving island's own
// pool — and only when no OnEvaluation hook may have retained them.
//
// A recycled buffer's per-layer scores are values: children that copied
// them hold their own.
type EvalPool struct {
	free  []*Evaluation
	chunk []Evaluation

	gets   uint64
	reuses uint64
}

// evalPoolChunk is the slab size: how many Evaluations one allocation
// covers when the freelist is empty.
const evalPoolChunk = 64

// NewEvalPool builds an empty pool.
func NewEvalPool() *EvalPool { return &EvalPool{} }

// Get returns an Evaluation buffer: recycled when available, otherwise
// carved from the current slab. The buffer's scored fields are stale —
// every scorer resets them — but its Layers capacity and scratch survive,
// which is the point.
func (pl *EvalPool) Get() *Evaluation {
	pl.gets++
	if n := len(pl.free); n > 0 {
		ev := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.reuses++
		return ev
	}
	if len(pl.chunk) == 0 {
		pl.chunk = make([]Evaluation, evalPoolChunk)
	}
	ev := &pl.chunk[0]
	pl.chunk = pl.chunk[1:]
	return ev
}

// Recycle returns a dead Evaluation to the freelist; nils are refused.
// See the type comment for the aliasing rule the caller must uphold.
func (pl *EvalPool) Recycle(ev *Evaluation) {
	if ev == nil {
		return
	}
	pl.free = append(pl.free, ev)
}

// Stats reports buffer acquisitions and how many were served by the
// freelist; reuses/gets is the pool reuse rate surfaced through
// core.Result and the serving metrics.
func (pl *EvalPool) Stats() (gets, reuses uint64) { return pl.gets, pl.reuses }

// Detach returns a self-contained copy of the evaluation: private genome,
// hardware vectors and layer slice (each layer's Score is a value, so the
// slice copy carries them). An evaluation that outlives its search — the
// engine's reported best, a long-retained serving result — must be
// detached, because the live one is woven into the search's slab
// allocators: its buffer comes from a pool chunk and its genome blocks
// from breeding arenas. One retained pointer would otherwise pin every
// slab it touches; the detached copy pins only itself. Layer identity
// pointers still reference the problem's stable layer table.
func (ev *Evaluation) Detach() *Evaluation {
	out := *ev
	out.scratch = nil
	out.Genome = ev.Genome.Clone()
	out.HW.Fanouts = append([]int(nil), ev.HW.Fanouts...)
	out.HW.BufBytes = append([]int64(nil), ev.HW.BufBytes...)
	out.Layers = append([]LayerEval(nil), ev.Layers...)
	return &out
}
