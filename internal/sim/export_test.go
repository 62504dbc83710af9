package sim

// SetMemoBudget shrinks an environment's reception-memo budget, for the
// external tests that overflow it.
func SetMemoBudget(e *Env, budget int) { e.memo.budget = budget }

// MemoEmpties reports how many times captures have emptied the memo.
func MemoEmpties(e *Env) int { return e.memo.empties }

// SetProcs sets the number of workers an environment resolves passes with,
// so the parallel resolution runs whatever GOMAXPROCS is.
func SetProcs(e *Env, procs int) { e.procs = procs }

// RoundsPass builds the pass whose round i transmits rounds[i] (every
// round non-silent), over listener set lid (content listeners) within the
// enclosing set within.
func RoundsPass(rounds [][]int, listeners []int, lid, within uint32) *Pass {
	p := &Pass{Len: len(rounds), Listeners: listeners, Lid: lid, Within: within}
	for i, txs := range rounds {
		for _, v := range txs {
			p.Events = append(p.Events, int32(len(p.Senders)))
			p.Senders = append(p.Senders, v)
		}
		p.Active = append(p.Active, int32(i))
		p.Ends = append(p.Ends, int32(len(p.Events)))
	}
	return p
}

// StepOne runs txs as a one-round pass and returns its deliveries, valid
// until the next round.
func StepOne(e *Env, txs []int, msgOf func(node int) Msg, listeners []int, lid, within uint32) []Delivery {
	var out []Delivery
	e.StepPass(RoundsPass([][]int{txs}, listeners, lid, within), msgOf, func(_ int, ds []Delivery) { out = ds })
	return out
}
