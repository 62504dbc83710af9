package sim

// SetMemoBudget shrinks an environment's reception-memo budget, for the
// external tests that overflow it.
func SetMemoBudget(e *Env, budget int) { e.memo.budget = budget }
