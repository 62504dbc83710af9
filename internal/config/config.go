// Package config centralises the protocol constants that the paper leaves as
// unspecified O(1)s: the close-pair constants κ and ρ (Lemmas 5–6), selector
// length factors, the Sparse Network Schedule selectivity, and the χ-derived
// loop counts. Defaults are calibrated so that laptop-scale simulations
// finish while every structural invariant (checked by internal/analysis)
// holds; Theoretical() returns paper-faithful worst-case values.
package config

import (
	"fmt"

	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

// Config carries the tunable protocol constants. The zero value is invalid;
// use Default or Theoretical.
type Config struct {
	// Kappa is κ from Lemmas 5–6: the number of closest nodes whose silence
	// guarantees close-pair reception. Bounds the proximity-graph degree.
	Kappa int
	// Rho is ρ from Lemma 6: the number of conflicting clusters per cluster.
	Rho int
	// SNSK is the strong-selectivity parameter k_γ of the Sparse Network
	// Schedule (Lemma 4): the number of nodes in the interference-relevant
	// ball that must be mutually resolved.
	SNSK int

	// Selector length factors (multiply the asymptotic size formulas).
	SSFFactor  float64
	WSSFactor  float64
	WCSSFactor float64

	// SparsifyURounds is l = χ(5, 1−ε): the number of Sparsification calls
	// chained by SparsificationU (Alg. 3).
	SparsifyURounds int
	// RadiusReductionIters is χ(r+1, 1−ε): the number of iterations of the
	// main loop of RadiusReduction (Alg. 5).
	RadiusReductionIters int

	// MISColorFactor scales the ssf used by the Linial-style colour
	// reduction inside the deterministic MIS.
	MISColorFactor float64
	// FastMIS selects the log*-style colour-reduction MIS (true) or the
	// iterated-local-minima MIS (false).
	FastMIS bool

	// Seed fixes the pseudo-random selector families. It is part of the
	// common knowledge shared by all nodes (like the families themselves).
	Seed uint64

	// EarlyStop enables the exact-skip optimisation: when a fixed-length
	// loop provably reaches a fixed point, remaining iterations are
	// accounted as skipped rounds instead of simulated one by one. Round
	// counts are unchanged; only wall-clock improves.
	EarlyStop bool
}

// Default returns the calibrated configuration used by tests and examples.
func Default() Config {
	return Config{
		Kappa:                4,
		Rho:                  4,
		SNSK:                 6,
		SSFFactor:            1,
		WSSFactor:            0.5,
		WCSSFactor:           0.125,
		SparsifyURounds:      2,
		RadiusReductionIters: 6,
		MISColorFactor:       0.5,
		FastMIS:              true,
		Seed:                 0x64636c7573746572, // "dcluster"
		EarlyStop:            true,
	}
}

// Theoretical returns paper-faithful constants for the given SINR
// parameters: loop counts from the packing bounds χ and generous selector
// factors. Expensive — intended for small calibration runs.
func Theoretical(p sinr.Params) Config {
	c := Default()
	c.Kappa = 6
	c.Rho = 8
	c.SNSK = 10
	c.SSFFactor = 2
	c.WSSFactor = 1
	c.WCSSFactor = 1
	c.SparsifyURounds = geom.ChiUpper(5, 1-p.Eps)
	c.RadiusReductionIters = geom.ChiUpper(3, 1-p.Eps)
	c.MISColorFactor = 1
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Kappa < 1:
		return fmt.Errorf("config: Kappa must be ≥ 1, got %d", c.Kappa)
	case c.Rho < 1:
		return fmt.Errorf("config: Rho must be ≥ 1, got %d", c.Rho)
	case c.SNSK < 1:
		return fmt.Errorf("config: SNSK must be ≥ 1, got %d", c.SNSK)
	case c.SSFFactor <= 0 || c.WSSFactor <= 0 || c.WCSSFactor <= 0:
		return fmt.Errorf("config: selector factors must be positive")
	case c.SparsifyURounds < 1:
		return fmt.Errorf("config: SparsifyURounds must be ≥ 1, got %d", c.SparsifyURounds)
	case c.RadiusReductionIters < 1:
		return fmt.Errorf("config: RadiusReductionIters must be ≥ 1, got %d", c.RadiusReductionIters)
	case c.MISColorFactor <= 0:
		return fmt.Errorf("config: MISColorFactor must be positive")
	}
	return nil
}
