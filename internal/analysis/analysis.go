// Package analysis provides the ground-truth oracles used to validate the
// distributed algorithms: the close-pair relation of Definition 1, the
// r-clustering conditions of §2, imperfect-labeling checks, and density
// statistics. It sees global state by design (it is the referee, not a
// protocol) and is used by tests, experiments and examples.
package analysis

import (
	"fmt"
	"math"
	"slices"

	"dcluster/internal/flat"
	"dcluster/internal/geom"
)

// ClosePair is an unordered close pair of node indices per Definition 1.
type ClosePair struct {
	U, W int
}

// ClosePairs returns all close pairs of the clustered point set. cluster
// assigns each point a cluster ID (pass a constant slice for the unclustered
// case, with r = 1). gamma is the density Γ of the set, r the clustering
// radius, eps the connectivity parameter.
//
// Conditions checked (Definition 1):
//
//	(a) same cluster;
//	(b) d(u,w) ≤ min(d_{Γ,r}, 1−ε);
//	(c) u and w are mutually nearest within their cluster;
//	(d) no two same-cluster points of B(u,ζ) ∪ B(w,ζ) are closer than
//	    d(u,w)/2, where ζ = d(u,w)/d_{Γ,r}.
func ClosePairs(pts []geom.Point, cluster []int32, gamma int, r, eps float64) []ClosePair {
	if len(pts) != len(cluster) {
		panic("analysis: pts and cluster length mismatch")
	}
	dGamma := geom.DGammaR(gamma, r)
	limit := math.Min(dGamma, 1-eps)
	grid := geom.NewGridIndex(pts, 1)

	nearest := make([]int, len(pts)) // nearest same-cluster index
	nearestD := make([]float64, len(pts))
	for i := range pts {
		nearest[i] = -1
		nearestD[i] = math.Inf(1)
		for j := range pts {
			if j == i || cluster[j] != cluster[i] {
				continue
			}
			if d := geom.Dist(pts[i], pts[j]); d < nearestD[i] {
				nearestD[i] = d
				nearest[i] = j
			}
		}
	}

	var out []ClosePair
	for u := range pts {
		w := nearest[u]
		if w < 0 || w < u { // handle each unordered pair once (u < w side)
			continue
		}
		if nearest[w] != u {
			// Mutuality with tie tolerance: if distances are equal the pair
			// still satisfies (c) literally (d(w,x) ≥ d(w,u) for all x).
			if math.Abs(nearestD[w]-nearestD[u]) > 1e-12 {
				continue
			}
		}
		d := nearestD[u]
		if d > limit || d == 0 {
			continue
		}
		zeta := d / dGamma
		if zeta > 1 {
			continue
		}
		if !separationOK(pts, cluster, grid, u, w, zeta, d/2) {
			continue
		}
		out = append(out, ClosePair{U: u, W: w})
	}
	return out
}

// separationOK checks condition (d): all distinct same-cluster points in
// B(u,ζ) ∪ B(w,ζ) are pairwise ≥ minSep apart.
func separationOK(pts []geom.Point, cluster []int32, grid *geom.GridIndex, u, w int, zeta, minSep float64) bool {
	var members []int
	add := func(i int) bool {
		if cluster[i] == cluster[u] {
			members = append(members, i)
		}
		return true
	}
	grid.ForNeighbors(pts[u], zeta, add)
	grid.ForNeighbors(pts[w], zeta, add)
	seen := map[int]bool{}
	uniq := members[:0]
	for _, i := range members {
		if !seen[i] {
			seen[i] = true
			uniq = append(uniq, i)
		}
	}
	for a := 0; a < len(uniq); a++ {
		for b := a + 1; b < len(uniq); b++ {
			if geom.Dist(pts[uniq[a]], pts[uniq[b]]) < minSep-1e-12 {
				return false
			}
		}
	}
	return true
}

// Clustering is a cluster assignment over a point set: ClusterOf[i] is the
// cluster ID of point i (or Unassigned), Center[φ] the index of φ's centre.
type Clustering struct {
	ClusterOf []int32
	Center    map[int32]int
}

// Unassigned marks a point without a cluster.
const Unassigned int32 = -1

// Validate checks the r-clustering conditions of §2 on the subset of
// assigned points: every cluster within distance r of its centre, centres
// of distinct clusters ≥ 1−ε apart. requireAll additionally demands that
// every point is assigned.
func (c Clustering) Validate(pts []geom.Point, r, eps float64, requireAll bool) error {
	if len(c.ClusterOf) != len(pts) {
		return fmt.Errorf("analysis: clustering covers %d of %d points", len(c.ClusterOf), len(pts))
	}
	for i, φ := range c.ClusterOf {
		if φ == Unassigned {
			if requireAll {
				return fmt.Errorf("analysis: point %d unassigned", i)
			}
			continue
		}
		ctr, ok := c.Center[φ]
		if !ok {
			return fmt.Errorf("analysis: cluster %d of point %d has no centre", φ, i)
		}
		if d := geom.Dist(pts[i], pts[ctr]); d > r+1e-9 {
			return fmt.Errorf("analysis: point %d at distance %.4f > r=%.2f from centre of cluster %d", i, d, r, φ)
		}
	}
	// Sorted, so an invalid clustering always reports the same pair.
	centers := make([]int, 0, len(c.Center))
	for _, idx := range c.Center {
		centers = append(centers, idx)
	}
	slices.Sort(centers)
	for a := 0; a < len(centers); a++ {
		for b := a + 1; b < len(centers); b++ {
			if d := geom.Dist(pts[centers[a]], pts[centers[b]]); d < (1-eps)-1e-9 {
				return fmt.Errorf("analysis: centres %d and %d at distance %.4f < 1−ε", centers[a], centers[b], d)
			}
		}
	}
	return nil
}

// ClustersPerUnitBall returns the maximum number of distinct clusters with a
// member inside any unit ball centred at an assigned point — the paper's
// condition (ii) requires this to be O(1). One stamped set over the cluster
// ids, reset per point, counts the distinct clusters, so the count
// allocates nothing per point.
func ClustersPerUnitBall(pts []geom.Point, clusterOf []int32) int {
	maxID := int32(-1)
	for _, φ := range clusterOf {
		maxID = max(maxID, φ)
	}
	grid := geom.NewGridIndex(pts, 1)
	var seen flat.BoolStamp
	best, count := 0, 0
	visit := func(j int) bool {
		if φ := clusterOf[j]; φ != Unassigned && !seen.Has(int(φ)) {
			seen.Set(int(φ))
			count++
		}
		return true
	}
	for i := range pts {
		if clusterOf[i] == Unassigned {
			continue
		}
		seen.Reset(int(maxID) + 1)
		count = 0
		grid.ForNeighbors(pts[i], 1, visit)
		best = max(best, count)
	}
	return best
}

// MaxClusterSize returns the clustered density: the largest cluster size.
func MaxClusterSize(clusterOf []int32) int {
	counts := map[int32]int{}
	best := 0
	for _, φ := range clusterOf {
		if φ == Unassigned {
			continue
		}
		counts[φ]++
		if counts[φ] > best {
			best = counts[φ]
		}
	}
	return best
}

// ValidateLabeling checks a c-imperfect labeling (§2): every assigned node
// has a positive label ≤ maxLabel, and within each cluster no label repeats
// more than c times.
func ValidateLabeling(clusterOf []int32, label []int32, c, maxLabel int) error {
	if len(clusterOf) != len(label) {
		return fmt.Errorf("analysis: label/cluster length mismatch")
	}
	counts := map[[2]int32]int{}
	for i := range label {
		if clusterOf[i] == Unassigned {
			continue
		}
		if label[i] < 1 || int(label[i]) > maxLabel {
			return fmt.Errorf("analysis: node %d label %d outside [1..%d]", i, label[i], maxLabel)
		}
		key := [2]int32{clusterOf[i], label[i]}
		counts[key]++
		if counts[key] > c {
			return fmt.Errorf("analysis: label %d repeats > %d times in cluster %d", label[i], c, key[0])
		}
	}
	return nil
}

// GraphSymmetric verifies a CSR adjacency is symmetric (H graphs must be).
func GraphSymmetric(adj *flat.Adjacency) error {
	for u := 0; u < adj.N(); u++ {
		for _, v32 := range adj.Neighbors(u) {
			if adj.EdgeIndex(int(v32), u) < 0 {
				return fmt.Errorf("analysis: edge %d→%d not reciprocated", u, v32)
			}
		}
	}
	return nil
}

// MaxDegree returns the maximum degree in a CSR adjacency.
func MaxDegree(adj *flat.Adjacency) int {
	best := 0
	for v := 0; v < adj.N(); v++ {
		if d := adj.Degree(v); d > best {
			best = d
		}
	}
	return best
}
