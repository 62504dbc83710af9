// Result types of the tasks Network.Run executes, and the checks that
// re-validate a clustering against the paper's conditions.

package dcluster

import (
	"fmt"

	"dcluster/internal/analysis"
	"dcluster/internal/broadcast"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
)

// Stats summarises one protocol execution.
type Stats struct {
	Rounds        int64 // synchronous SINR rounds
	Transmissions int64 // node-rounds spent transmitting
	Deliveries    int64 // successful receptions
	MaxNodeTx     int64 // per-node energy: most transmissions by one node
}

func statsOf(e *sim.Env) Stats {
	s := e.Stats()
	return Stats{
		Rounds:        s.Rounds,
		Transmissions: s.Transmissions,
		Deliveries:    s.Deliveries,
		MaxNodeTx:     e.Energy().Max,
	}
}

// ClusterResult is the output of the clustering algorithm (Theorem 1).
type ClusterResult struct {
	// ClusterOf[i] is node i's cluster ID (the centre's protocol ID).
	ClusterOf []int32
	// Center maps cluster IDs to centre node indices.
	Center map[int32]int
	// Stats of the execution.
	Stats Stats
}

// NumClusters returns the number of distinct clusters.
func (r *ClusterResult) NumClusters() int { return len(r.Center) }

// LocalBroadcastResult is the output of LocalBroadcast (Theorem 2).
type LocalBroadcastResult struct {
	// Clustering used by the schedule.
	Clustering *ClusterResult
	// Label[i] is node i's imperfect label.
	Label []int32
	// Heard[u][v] reports that u received v's message.
	Heard map[int]map[int]bool
	// Stats of the execution.
	Stats Stats
}

// Complete reports whether every node's message reached all its
// communication-graph neighbours.
func (r *LocalBroadcastResult) Complete(n *Network) bool {
	for v, ns := range n.CommGraph() {
		for _, u := range ns {
			if !r.Heard[u][v] {
				return false
			}
		}
	}
	return true
}

// GlobalBroadcastResult is the output of global broadcast (Theorem 3).
type GlobalBroadcastResult struct {
	// AwakePhase[i] is the phase at which node i received the message
	// (0 for sources), or -1 if unreachable.
	AwakePhase []int
	// AwakeRound[i] is the round of first reception, or -1.
	AwakeRound []int64
	// PhaseTrace carries the per-phase statistics (Figure 1 data).
	PhaseTrace []broadcast.PhaseStats
	// Stats of the execution.
	Stats Stats
}

// Coverage returns the fraction of nodes reached.
func (r *GlobalBroadcastResult) Coverage() float64 {
	n, c := len(r.AwakePhase), 0
	for _, p := range r.AwakePhase {
		if p >= 0 {
			c++
		}
	}
	return float64(c) / float64(n)
}

// LeaderResult is the output of leader election (Theorem 5).
type LeaderResult struct {
	// Leader is the elected node index, LeaderID its protocol ID.
	Leader   int
	LeaderID int
	// Probes is the number of binary-search SMSB executions.
	Probes int
	// Stats of the execution.
	Stats Stats
}

// WakeUpResult is the output of the wake-up protocol (Theorem 4).
type WakeUpResult struct {
	// AwakeRound[i]: round node i became active, or -1.
	AwakeRound []int64
	// Epochs executed.
	Epochs int
	// Stats of the execution.
	Stats Stats
}

// ClusterStats summarises a clustering for reporting: sizes, max radius,
// minimum centre distance, clusters per unit ball.
func (n *Network) ClusterStats(r *ClusterResult) analysis.ClusterStats {
	return analysis.ComputeClusterStats(n.pts, r.ClusterOf, r.Center)
}

// ValidateClustering re-checks a ClusterResult against the paper's
// 1-clustering conditions (used by tests and examples).
func (n *Network) ValidateClustering(r *ClusterResult) error {
	if err := n.validateClustering(r.ClusterOf, r.Center, 1.0); err != nil {
		return err
	}
	budget := geom.ChiUpper(2, 1-n.params.Eps)
	if got := analysis.ClustersPerUnitBall(n.pts, r.ClusterOf); got > budget {
		return fmt.Errorf("dcluster: %d clusters meet one unit ball (budget %d)", got, budget)
	}
	return nil
}
