package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over a fixed set
// of parameters. Frozen parameters are skipped, which is how LoRA
// fine-tuning trains only the adapters.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	WDecay float64 // decoupled weight decay (AdamW); 0 disables
	params []*Param
	m, v   []*Matrix
	step   int
}

// NewAdam builds an optimizer over params with the given learning rate and
// default betas (0.9, 0.999).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params,
		m: make([]*Matrix, len(params)), v: make([]*Matrix, len(params))}
	for i, p := range params {
		// Frozen params never reach the moment update (Step skips them
		// before touching m/v), so a LoRA fine-tune — where the frozen
		// base dwarfs the adapters — shouldn't pay two full-model moment
		// buffers for weights that will never move.
		if p.Frozen {
			continue
		}
		a.m[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
		a.v[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// Step applies one update from the accumulated gradients, then clears them.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		if p.Frozen {
			p.Grad.Zero()
			continue
		}
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			upd := a.LR * mh / (math.Sqrt(vh) + a.Eps)
			if a.WDecay != 0 {
				upd += a.LR * a.WDecay * p.Value.Data[j]
			}
			p.Value.Data[j] -= upd
		}
		p.Grad.Zero()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most c.
func ClipGradNorm(params []*Param, c float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= c || norm == 0 {
		return
	}
	scale := c / norm
	for _, p := range params {
		ScaleInPlace(p.Grad, scale)
	}
}
