package selectors

import "fmt"

// WCSS is an (N, k, l)-witnessed cluster-aware strong selector (Lemma 3):
// for every set C of l clusters, every cluster φ ∉ C, every X ⊆ [N]×{φ} with
// |X| = k, every x ∈ X and y ∉ X in cluster φ, there is a set S_i such that
// S_i ∩ X = {x}, y ∈ S_i, and S_i is free of all clusters in C.
//
// Construction mirrors the paper's probabilistic proof with a fixed seed:
// each set S_i first draws an "allowed clusters" set C_i (each cluster with
// probability 1/l), then contains (x, φ) iff φ ∈ C_i and x is drawn with
// probability 1/k. Length Θ((k+l)·l·k²·log N) per Lemma 3.
type WCSS struct {
	n, k, l, m int
	seed       uint64
	tNode      uint64 // precomputed pick thresholds (1/k node, 1/l cluster)
	tClus      uint64
}

const (
	saltWCSSCluster = 0x57435353636c7573 // "WCSSclus"
	saltWCSSNode    = 0x574353536e6f6465 // "WCSSnode"
)

// NewWCSS builds an (n, k, l)-wcss of length
// ⌈factor · (k+l) · l · k² · log₂n⌉.
func NewWCSS(n, k, l int, factor float64, seed uint64) (*WCSS, error) {
	if n < 1 || k < 1 || l < 1 {
		return nil, fmt.Errorf("selectors: invalid wcss parameters n=%d k=%d l=%d", n, k, l)
	}
	if k > n {
		k = n
	}
	if factor <= 0 {
		factor = 1
	}
	m := int(factor * float64((k+l)*l*k*k*log2ceil(n)))
	if m < k {
		m = k
	}
	return &WCSS{n: n, k: k, l: l, m: m, seed: seed, tNode: pickThreshold(k), tClus: pickThreshold(l)}, nil
}

// Len returns the schedule length.
func (w *WCSS) Len() int { return w.m }

// K returns the per-cluster selectivity parameter.
func (w *WCSS) K() int { return w.k }

// ClusterAllowed reports whether cluster φ is in the allowed set C_i.
func (w *WCSS) ClusterAllowed(round, cluster int) bool {
	return pick(w.seed, round, cluster, saltWCSSCluster, w.l)
}

// ContainsPair reports whether (id, cluster) ∈ S_i: the cluster must be
// allowed in round i and the id drawn.
func (w *WCSS) ContainsPair(round, id, cluster int) bool {
	return w.ClusterAllowed(round, cluster) && pick(w.seed, round, id, saltWCSSNode, w.k)
}
