package apps

import (
	"fmt"
	"math"

	"repro/satin"
)

// Integrate computes a definite integral by adaptive quadrature:
// intervals whose Simpson estimate disagrees with its refinement split
// into two subtasks. Task sizes depend on where the integrand
// misbehaves — a naturally irregular divide-and-conquer tree.
//
// The integrand is selected by name so tasks stay serialisable.
type Integrate struct {
	Fn       string
	A, B     float64
	Eps      float64
	MaxDepth int
	Depth    int
}

// integrands the tasks can reference by name.
var integrands = map[string]func(float64) float64{
	"poly":     func(x float64) float64 { return x*x*x - 2*x + 1 },
	"sin":      math.Sin,
	"gauss":    func(x float64) float64 { return math.Exp(-x * x) },
	"spiky":    func(x float64) float64 { return math.Sin(1/(0.01+x*x)) + 1 },
	"needle":   func(x float64) float64 { return 1 / (1e-4 + x*x) },
	"constant": func(float64) float64 { return 1 },
}

func simpson(f func(float64) float64, a, b float64) float64 {
	return (b - a) / 6 * (f(a) + 4*f((a+b)/2) + f(b))
}

// Execute implements satin.Task.
func (in Integrate) Execute(ctx *satin.Context) (any, error) {
	f, ok := integrands[in.Fn]
	if !ok {
		return nil, fmt.Errorf("apps: unknown integrand %q", in.Fn)
	}
	if in.MaxDepth == 0 {
		in.MaxDepth = 40
	}
	mid := (in.A + in.B) / 2
	whole := simpson(f, in.A, in.B)
	left := simpson(f, in.A, mid)
	right := simpson(f, mid, in.B)
	if math.Abs(left+right-whole) < 15*in.Eps || in.Depth >= in.MaxDepth {
		return left + right + (left+right-whole)/15, nil
	}
	// Below a modest depth the subintervals are worth distributing;
	// deeper refinement runs sequentially to keep tasks coarse enough.
	if in.Depth >= 8 {
		l, err := (Integrate{Fn: in.Fn, A: in.A, B: mid, Eps: in.Eps / 2,
			MaxDepth: in.MaxDepth, Depth: in.Depth + 1}).Execute(ctx)
		if err != nil {
			return nil, err
		}
		r, err := (Integrate{Fn: in.Fn, A: mid, B: in.B, Eps: in.Eps / 2,
			MaxDepth: in.MaxDepth, Depth: in.Depth + 1}).Execute(ctx)
		if err != nil {
			return nil, err
		}
		return l.(float64) + r.(float64), nil
	}
	lf := ctx.Spawn(Integrate{Fn: in.Fn, A: in.A, B: mid, Eps: in.Eps / 2,
		MaxDepth: in.MaxDepth, Depth: in.Depth + 1})
	rf := ctx.Spawn(Integrate{Fn: in.Fn, A: mid, B: in.B, Eps: in.Eps / 2,
		MaxDepth: in.MaxDepth, Depth: in.Depth + 1})
	if err := ctx.Sync(); err != nil {
		return nil, err
	}
	return lf.Float() + rf.Float(), nil
}

func init() {
	satin.Register(Integrate{})
	satin.RegisterValue(float64(0))
}
