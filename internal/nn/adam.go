package nn

import "math"

// Adam's settings: the default betas and epsilon, and the global L2 norm
// Step clips the gradients to. They are typed so that 1-beta1 and 1-beta2
// are the float64 differences, not the exact constants 0.1 and 0.001.
const (
	beta1    float64 = 0.9
	beta2    float64 = 0.999
	eps      float64 = 1e-8
	clipNorm float64 = 5
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over a fixed set
// of parameters. Parameters frozen when the optimizer is built are skipped
// entirely — no moments, no update, no clearing of a gradient nothing writes
// — which is how LoRA fine-tuning trains only the adapters.
type Adam struct {
	lr     float64
	params []*Param
	m, v   [][]float64 // per parameter, nil when frozen
	slab   []float64   // m's and v's storage, borrowed from the chunk pools
	blocks []rowBlock  // the trainable parameters' rows, cut as the pass cuts them
	step   int
	// workers is how many goroutines Step spreads the blocks over;
	// GradPool.Step sets it to the pool's width.
	workers int
}

// NewAdam builds an optimizer over params with the given learning rate. The
// moments live only as long as the optimizer, so they are borrowed, cleared,
// from the arena chunk pools; Release hands them back.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{lr: lr, params: params,
		m: make([][]float64, len(params)), v: make([][]float64, len(params)), blocks: rowBlocks(params)}
	total := 0
	for _, p := range params {
		// A LoRA fine-tune's frozen base dwarfs the adapters: no moment
		// buffers for weights that will never move.
		if !p.Frozen {
			total += 2 * len(p.Value.Data)
		}
	}
	if total == 0 {
		return a
	}
	// A recycled chunk holds whatever its last borrower left there.
	a.slab = newChunk(total)[:total]
	clear(a.slab)
	off := 0
	for i, p := range params {
		if !p.Frozen {
			n := len(p.Value.Data)
			a.m[i], a.v[i] = a.slab[off:off+n:off+n], a.slab[off+n:off+2*n:off+2*n]
			off += 2 * n
		}
	}
	return a
}

// Release returns the moments to the chunk pools. The optimizer must not
// step again; a second Release does nothing.
func (a *Adam) Release() {
	if a.slab != nil {
		putChunk(a.slab)
	}
	a.slab = nil
	clear(a.m)
	clear(a.v)
}

// Step applies one update from the accumulated gradients, first rescaled so
// their global L2 norm is at most clipNorm, then clears them. The clip's
// norm is one serial sum in parameter order; the update of each row block is
// independent of every other, so the blocks run on the optimizer's workers.
func (a *Adam) Step() {
	scale := clipScale(a.params, clipNorm)
	a.step++
	bc1 := 1 - math.Pow(beta1, float64(a.step))
	bc2 := 1 - math.Pow(beta2, float64(a.step))
	if a.workers <= 1 {
		for _, b := range a.blocks {
			a.update(b, scale, bc1, bc2)
		}
		return
	}
	dispatch(len(a.blocks), a.workers, func(_, i int) { a.update(a.blocks[i], scale, bc1, bc2) })
}

// update steps the rows of block b, their gradients first multiplied by
// scale unless it is 1, and clears those gradient rows.
func (a *Adam) update(b rowBlock, scale, bc1, bc2 float64) {
	cols := b.p.Value.Cols
	lo, hi := b.lo*cols, b.hi*cols
	grad, value := b.p.Grad.Data[lo:hi], b.p.Value.Data[lo:hi]
	m, v := a.m[b.pi][lo:hi], a.v[b.pi][lo:hi]
	for j, g := range grad {
		if scale != 1 {
			g *= scale
		}
		m[j] = beta1*m[j] + (1-beta1)*g
		v[j] = beta2*v[j] + (1-beta2)*g*g
		mh := m[j] / bc1
		vh := v[j] / bc2
		value[j] -= a.lr * mh / (math.Sqrt(vh) + eps)
	}
	clear(grad)
}

// clipScale returns the factor that brings the global L2 norm of the
// trainable gradients down to c, or 1 when it is at most c or zero. The sum
// runs in parameter-then-element order; a frozen gradient is all +0, which
// leaves a sum that starts at +0 unchanged, so skipping it changes no bit.
func clipScale(params []*Param, c float64) float64 {
	var sq float64
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= c || norm == 0 {
		return 1
	}
	return c / norm
}
