package nn

import "math"

// GradCheck compares the analytic gradient of a scalar-valued function with
// central finite differences, returning the worst relative error over all
// elements of all params. f must rebuild the graph from scratch on every
// call (it receives a fresh tape) and return a scalar node.
func GradCheck(params []*Param, f func(t *Tape) *Node) float64 {
	// Analytic pass.
	for _, p := range params {
		p.Grad.Zero()
	}
	tape := NewTape()
	out := f(tape)
	tape.Backward(out)
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Grad.Data...)
		p.Grad.Zero()
	}

	const h = 1e-5
	worst := 0.0
	eval := func() float64 {
		t := NewTape()
		return f(t).Value.Data[0]
	}
	for i, p := range params {
		for j := range p.Value.Data {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + h
			up := eval()
			p.Value.Data[j] = orig - h
			down := eval()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * h)
			diff := math.Abs(numeric - analytic[i][j])
			denom := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic[i][j])))
			if rel := diff / denom; rel > worst {
				worst = rel
			}
		}
	}
	return worst
}
