package dcluster

// WithForceParallel makes Run compute every pass's misses on all
// GOMAXPROCS sessions (sim.Control.ForceParallel), so small instances
// exercise the parallel resolution.
func WithForceParallel() RunOption {
	return func(c *runConfig) { c.forceParallel = true }
}
