package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one interval of a traced workload: the workload, each instance,
// the instance's set-up (engine construction, density) and traced samples,
// and each sample's phases. Start is measured from the workload's start.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // -1 for the workload
	Name    string        `json:"name"`
	Start   float64       `json:"start_s"`
	Dur     float64       `json:"dur_s"`
	Self    float64       `json:"self_s"` // Dur minus the child spans
	Rounds  int64         `json:"rounds,omitempty"`
	Deliver *deliverStats `json:"deliver,omitempty"` // engine calls inside the span
}

// spanLog holds the spans in memory until the benchmark writes them.
type spanLog struct {
	path  string
	seed  int64
	spans []span
}

func (l *spanLog) add(parent int, name string, epoch, start, end time.Time) int {
	l.spans = append(l.spans, span{
		ID:     len(l.spans),
		Parent: parent,
		Name:   name,
		Start:  start.Sub(epoch).Seconds(),
		Dur:    end.Sub(start).Seconds(),
	})
	return len(l.spans) - 1
}

// addWorkload records the spans of a finished measurement's traced samples.
// Times are this machine's seconds, as measured.
func (l *spanLog) addWorkload(m *measurement) {
	epoch := m.start
	root := l.add(-1, "workload:"+m.w.name, epoch, epoch, time.Now())
	for k, inst := range m.insts {
		if inst.setup == nil || len(inst.traced) == 0 {
			continue
		}
		end := inst.traced[len(inst.traced)-1].end
		parent := l.add(root, fmt.Sprintf("instance:%d", k), epoch, inst.setup.start, end)
		setup := l.add(parent, "setup", epoch, inst.setup.start, inst.setup.done)
		l.add(setup, "setup.engine", epoch, inst.setup.start, inst.setup.engineDone)
		l.add(setup, "setup.density", epoch, inst.setup.engineDone, inst.setup.done)
		for r, t := range inst.traced {
			run := l.add(parent, fmt.Sprintf("sample:%d", r), epoch, t.start, t.end)
			d := t.deliver()
			l.spans[run].Rounds, l.spans[run].Deliver = t.rounds, &d
			for _, p := range t.phases {
				id := l.add(run, "phase:"+p.label, epoch, p.start, p.end)
				pd := p.deliver
				l.spans[id].Rounds, l.spans[id].Deliver = p.rounds, &pd
			}
		}
	}
}

// write computes each span's self time and writes the log as JSON.
func (l *spanLog) write() error {
	covered := make([]float64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.Dur
		}
	}
	for i := range l.spans {
		l.spans[i].Self = l.spans[i].Dur - covered[i]
	}
	data, err := json.MarshalIndent(struct {
		Seed  int64  `json:"seed"`
		Spans []span `json:"spans"`
	}{l.seed, l.spans}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(l.path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
