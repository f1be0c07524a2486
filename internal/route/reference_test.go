package route

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"repro/internal/network"
)

// This file keeps the tour planner as it was before its searches were
// bounded: a full-graph container/heap Dijkstra per stop, and one more
// from the final position to classify unreached candidates. The
// differential tests hold Recommend to it exactly.

type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refDijkstra(g *Graph, src, stop network.VertexID) (dist []float64, prevV []int32, prevS []int32) {
	n := len(g.adj)
	dist = make([]float64, n)
	prevV = make([]int32, n)
	prevS = make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevV[i] = -1
		prevS[i] = -1
	}
	dist[src] = 0
	q := refPQ{{v: src, dist: 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		if it.v == stop {
			return dist, prevV, prevS
		}
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prevV[e.to] = int32(it.v)
				prevS[e.to] = e.seg
				heap.Push(&q, pqItem{v: e.to, dist: nd})
			}
		}
	}
	return dist, prevV, prevS
}

func refRecommend(g *Graph, candidates []Candidate, budget float64) (Tour, error) {
	if len(candidates) == 0 {
		return Tour{}, errors.New("route: no candidate streets")
	}
	if budget <= 0 {
		return Tour{}, fmt.Errorf("route: non-positive budget %v", budget)
	}
	// Pick the start: the highest-interest candidate.
	start := 0
	for i, c := range candidates {
		if c.Interest > candidates[start].Interest {
			start = i
		}
	}
	visited := map[int]bool{start: true}
	startStreet := g.net.Street(candidates[start].Street)
	tour := Tour{
		Stops: []Stop{{
			Street:   candidates[start].Street,
			Name:     startStreet.Name,
			Interest: candidates[start].Interest,
		}},
		Length:   startStreet.Length(),
		Interest: candidates[start].Interest,
	}
	// Current position: the end vertex of the last visited street.
	cur := streetEnd(g.net, candidates[start].Street)
	for len(visited) < len(candidates) {
		dist, prevV, prevS := refDijkstra(g, cur, network.VertexID(math.MaxUint32))
		bestIdx := -1
		var bestRatio float64
		var bestPath Path
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			entry := streetStart(g.net, c.Street)
			d := dist[entry]
			if math.IsInf(d, 1) {
				continue
			}
			st := g.net.Street(c.Street)
			cost := d + st.Length()
			if tour.Length+cost > budget {
				continue
			}
			ratio := c.Interest / (cost + 1e-12)
			if bestIdx == -1 || ratio > bestRatio {
				bestIdx = i
				bestRatio = ratio
				bestPath = g.reconstruct(cur, entry, dist, prevV, prevS)
			}
		}
		if bestIdx == -1 {
			break // nothing reachable fits the budget
		}
		c := candidates[bestIdx]
		st := g.net.Street(c.Street)
		visited[bestIdx] = true
		tour.Stops = append(tour.Stops, Stop{
			Street:   c.Street,
			Name:     st.Name,
			Interest: c.Interest,
			Approach: bestPath,
		})
		tour.Length += bestPath.Length + st.Length()
		tour.Interest += c.Interest
		cur = streetEnd(g.net, c.Street)
	}
	if len(visited) < len(candidates) {
		// Classify the leftovers: reachability is a component property of
		// the undirected graph, so one distance pass from the final
		// position settles it for every remaining candidate.
		dist, _, _ := refDijkstra(g, cur, network.VertexID(math.MaxUint32))
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			if math.IsInf(dist[streetStart(g.net, c.Street)], 1) {
				tour.Unreached = append(tour.Unreached, Unreached{
					Street:   c.Street,
					Name:     g.net.Street(c.Street).Name,
					Interest: c.Interest,
				})
			}
		}
	}
	return tour, nil
}
