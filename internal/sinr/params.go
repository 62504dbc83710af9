// Package sinr implements the physical layer of the paper's model: the
// Signal-to-Interference-and-Noise-Ratio reception rule (Eq. 1) with uniform
// transmission power, normalised so the transmission range is exactly 1.
package sinr

import (
	"errors"
	"fmt"
	"math"
)

// Params are the SINR model parameters known to every node (§1.1):
// path loss α > 2, threshold β > 1, ambient noise N > 0, transmission power
// P, and the connectivity parameter ε ∈ (0,1) defining the communication
// graph (edges at distance ≤ 1−ε).
type Params struct {
	Alpha float64 // path-loss exponent, α > 2
	Beta  float64 // SINR threshold, β > 1
	Noise float64 // ambient noise, N > 0
	Power float64 // transmission power P; P = β·N ⇔ range = 1
	Eps   float64 // connectivity parameter ε ∈ (0,1)
}

// DefaultParams returns the parameter set used across tests and experiments:
// α = 3, β = 2, noise = 1, P = β·noise (range exactly 1), ε = 0.25.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 2, Noise: 1, Power: 2, Eps: 0.25}
}

// Validate checks the model constraints from §1.1. Every parameter must be
// finite: a NaN would slip through the range tests below (every comparison
// with NaN is false), and a non-finite parameter can make gains NaN, which
// the engines' argmax over gain bit patterns does not admit.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"path loss α", p.Alpha}, {"threshold β", p.Beta}, {"noise", p.Noise}, {"power", p.Power}, {"ε", p.Eps}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sinr: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case p.Alpha <= 2:
		return fmt.Errorf("sinr: path loss α must be > 2, got %v", p.Alpha)
	case p.Beta <= 1:
		return fmt.Errorf("sinr: threshold β must be > 1, got %v", p.Beta)
	case p.Noise <= 0:
		return fmt.Errorf("sinr: noise must be > 0, got %v", p.Noise)
	case p.Power <= 0:
		return fmt.Errorf("sinr: power must be > 0, got %v", p.Power)
	case p.Eps <= 0 || p.Eps >= 1:
		return fmt.Errorf("sinr: ε must be in (0,1), got %v", p.Eps)
	}
	return nil
}

// Range returns the transmission range: the maximal distance at which a node
// can be heard with no other transmitters, (P/(N·β))^{1/α}. With the paper's
// normalisation P = β·N this is 1.
func (p Params) Range() float64 {
	return pow(p.Power/(p.Noise*p.Beta), 1/p.Alpha)
}

// GraphRadius returns the communication-graph radius 1−ε (scaled by the
// actual range for non-normalised parameter sets).
func (p Params) GraphRadius() float64 {
	return p.Range() * (1 - p.Eps)
}

// ErrMismatchedSize is returned by field constructors on inconsistent input.
var ErrMismatchedSize = errors.New("sinr: inconsistent input sizes")
