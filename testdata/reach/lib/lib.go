// Package lib is the reachability gate's fixture: one declaration of each
// kind the gate must tell apart.
package lib

// Shape is called through by the main package.
type Shape interface{ Area() float64 }

// Square reaches its Area method only through Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Total is what the main package calls.
func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Uncalled has no caller at all.
func Uncalled() int { return 1 }

// CalledByTestOnly has a caller only in lib_test.go.
func CalledByTestOnly() int { return 2 }

// Forbidden is live, but the fixture's rule table forbids package user to
// call it.
func Forbidden() int { return 3 }

// BenchOnly has a caller only in the benchmark main.
func BenchOnly() int { return 4 }
