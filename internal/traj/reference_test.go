package traj

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/network"
)

// This file keeps the route search as it was before the distance
// searches were bounded at the budget: two full-graph Distances, an
// interest table scanned over every vertex, and partials that copy their
// whole vertex and segment paths. The differential tests hold the
// bounded search to it bit for bit, answers and SearchStats alike.

type refPartial struct {
	verts    []network.VertexID
	segs     []network.SegmentID
	length   float64
	interest float64
	remPos   float64
	ub       float64
}

type refFrontier []*refPartial

func (f refFrontier) Len() int { return len(f) }
func (f refFrontier) Less(i, j int) bool {
	a, b := f[i], f[j]
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	if a.length != b.length {
		return a.length < b.length
	}
	return lessVertSeq(a.verts, b.verts)
}
func (f refFrontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *refFrontier) Push(x interface{}) { *f = append(*f, x.(*refPartial)) }
func (f *refFrontier) Pop() interface{} {
	old := *f
	n := len(old)
	p := old[n-1]
	*f = old[:n-1]
	return p
}

func refContainsVert(vs []network.VertexID, v network.VertexID) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}

func refTopKRoutes(ctx context.Context, g *Graph, interest InterestFunc, q RouteQuery, opt SearchOptions) ([]Route, SearchStats, error) {
	var st SearchStats
	if err := q.Validate(g); err != nil {
		return nil, st, err
	}
	maxExp := opt.MaxExpansions
	if maxExp <= 0 {
		maxExp = DefaultMaxExpansions
	}

	distToDst := g.Distances(q.Dst)
	if math.IsInf(distToDst[q.Src], 1) {
		return []Route{}, st, nil
	}
	distFromSrc := g.Distances(q.Src)

	budgetCap := q.Budget * (1 + boundSlack)

	// Exact per-segment interests, computed once — but only for segments
	// some budget-feasible path can traverse (a directed edge u→v with
	// distFromSrc[u] + len + distToDst[v] within the slack-extended
	// budget). Every other segment is unreachable by the search, so its
	// interest fold is never needed and contributes nothing to any bound.
	interests := make([]float64, g.net.NumSegments())
	evaluated := make([]bool, g.net.NumSegments())
	// needs/prefixPos support the per-partial collectible bound: a
	// completion suffix that traverses segment s and then reaches the
	// destination is at least need(s) = len(s) + min(distToDst over s's
	// endpoints) long, so a partial with remaining budget r can only
	// still collect segments with need ≤ r. Sorting feasible positive
	// interests by need with a prefix sum turns "positive interest still
	// collectible within r" into one binary search.
	var entries []needEntry
	for u := range g.adj {
		du := distFromSrc[u]
		if math.IsInf(du, 1) {
			continue
		}
		for _, e := range g.adj[u] {
			if e.Seg == ConnectorSeg {
				continue
			}
			if du+e.Len+distToDst[e.To] > budgetCap {
				continue
			}
			if evaluated[e.Seg] {
				continue
			}
			evaluated[e.Seg] = true
			iv := interest(network.SegmentID(e.Seg))
			interests[e.Seg] = iv
			if iv > 0 {
				entries = append(entries, needEntry{
					need: e.Len + math.Min(distToDst[network.VertexID(u)], distToDst[e.To]),
					pos:  iv,
				})
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].need < entries[j].need })
	needs := make([]float64, len(entries))
	prefixPos := make([]float64, len(entries)+1)
	for i, en := range entries {
		needs[i] = en.need
		prefixPos[i+1] = prefixPos[i] + en.pos
	}
	// reachPos bounds the positive interest collectible with remaining
	// budget r. posTotal is reachPos over the whole budget: the sum of
	// every feasible positive interest.
	reachPos := func(r float64) float64 {
		return prefixPos[sort.Search(len(needs), func(i int) bool { return needs[i] > r })]
	}
	posTotal := prefixPos[len(entries)]

	var completions []Route
	// top holds the k best completion scores; threshold is its minimum
	// once full.
	var top scoreHeap
	threshold := math.Inf(-1)

	f := refFrontier{&refPartial{
		verts:  []network.VertexID{q.Src},
		remPos: posTotal,
		ub:     posTotal - q.Alpha*distToDst[q.Src],
	}}
	heap.Init(&f)

	for f.Len() > 0 {
		if st.Expansions%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
		}
		if err := faults.InjectCtx(ctx, "traj.search"); err != nil {
			return nil, st, err
		}
		if st.Expansions >= maxExp {
			return nil, st, fmt.Errorf("%w (%d expansions)", ErrSearchBudget, st.Expansions)
		}
		p := heap.Pop(&f).(*refPartial)
		st.Expansions++
		if belowThreshold(p.ub, threshold) {
			st.PrunedBound++
			continue
		}
		last := p.verts[len(p.verts)-1]
		if last == q.Dst {
			// A vertex-simple path cannot revisit the destination, so
			// this partial is exactly one completed route.
			score := p.interest - q.Alpha*p.length
			completions = append(completions, Route{
				Vertices: p.verts,
				Segments: p.segs,
				Length:   p.length,
				Interest: p.interest,
				Score:    score,
			})
			st.Completed++
			if top.Len() < q.K {
				heap.Push(&top, score)
			} else if score > top[0] {
				top[0] = score
				heap.Fix(&top, 0)
			}
			if top.Len() == q.K {
				threshold = top[0]
			}
			continue
		}
		for _, e := range g.adj[last] {
			if refContainsVert(p.verts, e.To) {
				continue // loopless: vertex-simple paths only
			}
			newLen := p.length + e.Len
			if newLen > q.Budget {
				st.PrunedBudget++
				continue // the exact budget rule, identical to the oracle
			}
			if newLen+distToDst[e.To] > budgetCap {
				st.PrunedBudget++
				continue // cannot reach dst within budget (slack-guarded)
			}
			newInterest := p.interest
			newRemPos := p.remPos
			if e.Seg != ConnectorSeg {
				iv := interests[e.Seg]
				newInterest += iv
				if iv > 0 {
					newRemPos -= iv
				}
			}
			// Admissible bound: any completion collects at most the
			// uncollected positive interest (remPos) that is also still
			// reachable within the remaining budget (reachPos), and walks
			// at least distToDst further. Both restrictions only drop
			// provably uncollectible interest, and the slack-guarded
			// threshold test below absorbs float rounding, so no true
			// top-k path is ever pruned.
			rem := newRemPos
			if rp := reachPos(budgetCap - newLen); rp < rem {
				rem = rp
			}
			ub := newInterest + rem - q.Alpha*(newLen+distToDst[e.To])
			if belowThreshold(ub, threshold) {
				st.PrunedBound++
				continue
			}
			child := &refPartial{
				verts:    append(append(make([]network.VertexID, 0, len(p.verts)+1), p.verts...), e.To),
				segs:     p.segs,
				length:   newLen,
				interest: newInterest,
				remPos:   newRemPos,
				ub:       ub,
			}
			if e.Seg != ConnectorSeg {
				child.segs = append(append(make([]network.SegmentID, 0, len(p.segs)+1), p.segs...), network.SegmentID(e.Seg))
			}
			heap.Push(&f, child)
			st.Generated++
		}
	}

	SortRoutes(completions)
	if len(completions) > q.K {
		completions = completions[:q.K]
	}
	return completions, st, nil
}
