package core

import (
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/network"
)

// deriveBounds resolves the grid extent for an index build: an explicit
// IndexConfig.Bounds wins (spatial shards pass the global extent so the
// cell lattice is shared), otherwise the union of the network bounds and
// every POI location is used so no object is clamped away.
func deriveBounds(net *network.Network, pts []geo.Point, cfg IndexConfig) (geo.Rect, error) {
	if cfg.Bounds != (geo.Rect{}) {
		if !cfg.Bounds.IsValid() {
			return geo.Rect{}, fmt.Errorf("core: invalid index bounds %v", cfg.Bounds)
		}
		return cfg.Bounds, nil
	}
	bounds := net.Bounds()
	for i, p := range pts {
		r := geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		if i == 0 && net.NumVertices() == 0 {
			bounds = r
		} else {
			bounds = bounds.Union(r)
		}
	}
	if !bounds.IsValid() {
		return geo.Rect{}, fmt.Errorf("core: cannot derive bounds from empty network and corpus")
	}
	return bounds, nil
}

// ErrNoSlab reports an Index built without a slab (IndexConfig.Compact
// unset, or dropped by AddPOI) asked for an operation only the slab
// layout implements.
var ErrNoSlab = errors.New("core: index has no slab (build it with IndexConfig.Compact)")

// UnseenBound returns the initial value of Algorithm 1's unseen upper
// bound for this index: UB = top(SL1)·top(SL2) / (2ε·top(SL3) + πε²)
// before any source-list pop. Because the source lists are untouched,
// the value bounds the interest of EVERY segment in the index, not just
// unseen ones: mass(ℓ) ≤ top(SL1)·|Cε(ℓ)| ≤ top(SL1)·top(SL2) and
// len(ℓ) ≥ top(SL3). The scatter-gather coordinator (internal/shard)
// uses it as each shard's static UB: once the merged global LBk strictly
// dominates a shard's UB, no street of that shard can reach the top-k
// and the shard is pruned without being evaluated.
//
// An exhausted list makes the bound zero: the index holds no
// query-relevant mass (SL1 empty) or no segments at all (SL2/SL3
// empty). The bound is deterministic — a pure function of ⟨index, Ψ, ε⟩.
// It is computed on the slab (SlabIndex.UnseenBound); an index without
// one returns ErrNoSlab.
func (ix *Index) UnseenBound(q Query) (float64, error) {
	if ix.six == nil {
		return 0, ErrNoSlab
	}
	return ix.six.UnseenBound(q)
}
