// Package route implements the paper's stated future work: "to provide
// route recommendations based on the discovered streets of interest"
// (Section 6). Given the ranked streets of a k-SOI answer, it plans a
// walking tour over the road network that visits as many of them as
// possible within a length budget.
//
// The substrate is a standard shortest-path layer over the network's
// vertex graph (binary-heap Dijkstra); the planner is a greedy
// insertion tour: starting from the most interesting street, repeatedly
// append the street with the best interest-per-detour ratio while the
// budget allows, then emit the full vertex path.
package route

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/network"
)

// Graph is an adjacency-list view of a road network, treating every
// street segment as a bidirectional edge weighted by its length (the
// paper's networks are directed graphs digitized from OSM ways; walking
// tours traverse them in both directions).
type Graph struct {
	net *network.Network
	adj [][]edge
	// comp labels each vertex with its connected component. Every edge
	// is bidirectional, so two vertices are connected exactly when their
	// labels match.
	comp []int32
	// searches pools Dijkstra state (*search) sized to this graph.
	searches sync.Pool
}

// connectorSeg marks an edge that is a pedestrian connector between two
// nearby vertices rather than a street segment.
const connectorSeg = int32(-2)

type edge struct {
	to  network.VertexID
	seg int32 // segment id, or connectorSeg
	w   float64
}

// NewGraph builds the adjacency structure of the network using only its
// street segments. Streets that cross geometrically but share no vertex
// (common in digitized data) remain disconnected; use NewGraphConnected
// for tour planning over such networks.
func NewGraph(net *network.Network) *Graph {
	g := segmentGraph(net)
	g.labelComponents()
	return g
}

func segmentGraph(net *network.Network) *Graph {
	g := &Graph{net: net, adj: make([][]edge, net.NumVertices())}
	for _, seg := range net.Segments() {
		g.adj[seg.From] = append(g.adj[seg.From], edge{to: seg.To, seg: int32(seg.ID), w: seg.Length()})
		g.adj[seg.To] = append(g.adj[seg.To], edge{to: seg.From, seg: int32(seg.ID), w: seg.Length()})
	}
	return g
}

// NewGraphConnected builds the adjacency structure and additionally adds
// pedestrian connector edges between every pair of vertices closer than
// snap, weighted by their Euclidean distance. This joins streets whose
// geometries cross or nearly touch without sharing a vertex.
func NewGraphConnected(net *network.Network, snap float64) *Graph {
	g := segmentGraph(net)
	if snap > 0 && net.NumVertices() > 0 {
		g.addConnectors(snap)
	}
	g.labelComponents()
	return g
}

func (g *Graph) addConnectors(snap float64) {
	net := g.net
	// Bucket vertices on a grid of cell size snap; candidates live in
	// the 3×3 cell block around each vertex.
	type cellKey struct{ x, y int32 }
	buckets := make(map[cellKey][]network.VertexID)
	keyOf := func(v network.VertexID) cellKey {
		p := net.Vertex(v)
		return cellKey{int32(math.Floor(p.X / snap)), int32(math.Floor(p.Y / snap))}
	}
	for v := 0; v < net.NumVertices(); v++ {
		k := keyOf(network.VertexID(v))
		buckets[k] = append(buckets[k], network.VertexID(v))
	}
	for v := 0; v < net.NumVertices(); v++ {
		vid := network.VertexID(v)
		pv := net.Vertex(vid)
		k := keyOf(vid)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, u := range buckets[cellKey{k.x + dx, k.y + dy}] {
					if u <= vid {
						continue // add each pair once, skip self
					}
					d := pv.Dist(net.Vertex(u))
					if d <= snap {
						g.adj[vid] = append(g.adj[vid], edge{to: u, seg: connectorSeg, w: d})
						g.adj[u] = append(g.adj[u], edge{to: vid, seg: connectorSeg, w: d})
					}
				}
			}
		}
	}
}

// labelComponents fills comp by a depth-first sweep from each unlabeled
// vertex in ascending id.
func (g *Graph) labelComponents() {
	g.comp = make([]int32, len(g.adj))
	for i := range g.comp {
		g.comp[i] = -1
	}
	var stack []network.VertexID
	next := int32(0)
	for v := range g.adj {
		if g.comp[v] >= 0 {
			continue
		}
		g.comp[v] = next
		stack = append(stack[:0], network.VertexID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if g.comp[e.to] < 0 {
					g.comp[e.to] = next
					stack = append(stack, e.to)
				}
			}
		}
		next++
	}
}

// Network returns the underlying road network.
func (g *Graph) Network() *network.Network { return g.net }

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	v    network.VertexID
	dist float64
}

// pq is a binary min-heap on dist. Its sift-up and sift-down follow
// container/heap step for step, so entries of equal distance pop in the
// same order as they always have: that order picks which of several
// equally short paths a tour walks.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Path is a shortest path between two vertices.
type Path struct {
	Vertices []network.VertexID
	Segments []network.SegmentID
	Length   float64
}

// ErrUnreachable is returned when no path connects the endpoints.
var ErrUnreachable = errors.New("route: vertices not connected")

// ShortestPath runs Dijkstra from src and reconstructs the path to dst.
func (g *Graph) ShortestPath(src, dst network.VertexID) (Path, error) {
	if int(src) >= len(g.adj) || int(dst) >= len(g.adj) {
		return Path{}, fmt.Errorf("route: vertex out of range (src=%d dst=%d of %d)", src, dst, len(g.adj))
	}
	dist, prevV, prevS := g.dijkstra(src, dst)
	if math.IsInf(dist[dst], 1) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrUnreachable, src, dst)
	}
	return g.reconstruct(src, dst, dist, prevV, prevS), nil
}

// ShortestDistances runs Dijkstra from src to every vertex, returning the
// distance slice (math.Inf(1) for unreachable vertices).
func (g *Graph) ShortestDistances(src network.VertexID) []float64 {
	dist, _, _ := g.dijkstra(src, network.VertexID(math.MaxUint32))
	return dist
}

// dijkstra computes shortest distances from src over the whole graph;
// when stop is a valid vertex the search may terminate once it is
// settled.
func (g *Graph) dijkstra(src, stop network.VertexID) (dist []float64, prevV []int32, prevS []int32) {
	s := newSearch(len(g.adj))
	g.search(s, src, stop, math.Inf(1))
	return s.dist, s.prevV, s.prevS
}

// search is the state of one Dijkstra run. touched lists every vertex
// whose entries were written, so reset restores a pooled search in time
// proportional to the run, not to the graph.
type search struct {
	dist    []float64
	prevV   []int32
	prevS   []int32
	touched []network.VertexID
	q       pq
}

func newSearch(n int) *search {
	s := &search{dist: make([]float64, n), prevV: make([]int32, n), prevS: make([]int32, n)}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevV[i] = -1
		s.prevS[i] = -1
	}
	return s
}

func (s *search) reset() {
	for _, v := range s.touched {
		s.dist[v] = math.Inf(1)
		s.prevV[v] = -1
		s.prevS[v] = -1
	}
	s.touched = s.touched[:0]
	s.q = s.q[:0]
}

// search runs Dijkstra from src into a reset s. It stops once stop is
// settled, or at the first pop farther than limit; in the second case
// every vertex reached but not settled reads as +Inf, as if unreachable.
// Settled vertices carry the distances and predecessors a full run
// gives them: the pops up to the stopping point are the same.
func (g *Graph) search(s *search, src, stop network.VertexID, limit float64) {
	s.dist[src] = 0
	s.touched = append(s.touched, src)
	s.q.push(pqItem{v: src, dist: 0})
	for len(s.q) > 0 {
		it := s.q.pop()
		if it.dist > limit {
			for _, v := range s.touched {
				if s.dist[v] > limit {
					s.dist[v] = math.Inf(1)
				}
			}
			return
		}
		if it.dist > s.dist[it.v] {
			continue // stale entry
		}
		if it.v == stop {
			return
		}
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.w; nd < s.dist[e.to] {
				if math.IsInf(s.dist[e.to], 1) {
					s.touched = append(s.touched, e.to)
				}
				s.dist[e.to] = nd
				s.prevV[e.to] = int32(it.v)
				s.prevS[e.to] = e.seg
				s.q.push(pqItem{v: e.to, dist: nd})
			}
		}
	}
}

func (g *Graph) reconstruct(src, dst network.VertexID, dist []float64, prevV, prevS []int32) Path {
	var vs []network.VertexID
	var segs []network.SegmentID
	for v := dst; ; {
		vs = append(vs, v)
		if v == src {
			break
		}
		if prevS[v] != connectorSeg {
			segs = append(segs, network.SegmentID(prevS[v]))
		}
		v = network.VertexID(prevV[v])
	}
	// Reverse into src→dst order.
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return Path{Vertices: vs, Segments: segs, Length: dist[dst]}
}

// Stop is one street visit of a recommended tour.
type Stop struct {
	Street   network.StreetID
	Name     string
	Interest float64
	// Approach is the path walked from the previous stop (empty for the
	// first stop).
	Approach Path
}

// Unreached records a candidate street the planner had to drop because
// no path connects it to the tour — it lives in a different connected
// component of the graph. It is distinct from streets that were merely
// over budget: those are reachable and simply omitted.
type Unreached struct {
	Street   network.StreetID
	Name     string
	Interest float64
}

// Tour is a recommended walking route over streets of interest.
type Tour struct {
	Stops []Stop
	// Length is the total walking length: approach paths plus the
	// traversed length of every visited street.
	Length float64
	// Interest is the summed interest of the visited streets.
	Interest float64
	// Unreached lists the candidate streets in no connected component of
	// the tour, in candidate order. Callers that must visit everything
	// can rebuild the graph with a larger connector snap radius (see
	// NewGraphConnected) and re-plan.
	Unreached []Unreached
}

// Candidate pairs a street with its interest score; the k-SOI answer in
// planner form.
type Candidate struct {
	Street   network.StreetID
	Interest float64
}

// Recommend plans a tour over the candidate streets: it starts at the
// most interesting street and greedily appends the street with the
// highest interest-per-detour ratio until the length budget is exhausted.
// Unreachable candidates are skipped. At least one stop is always
// returned when any candidate exists, even if its street alone exceeds
// the budget.
func Recommend(g *Graph, candidates []Candidate, budget float64) (Tour, error) {
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
	visited := make([]bool, len(candidates))
	visited[start] = true
	nVisited := 1
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
	s := g.getSearch()
	defer g.putSearch(s)
	// Current position: the end vertex of the last visited street.
	cur := streetEnd(g.net, candidates[start].Street)
	for nVisited < len(candidates) {
		// A stop needs tour.Length + d + len(street) ≤ budget, so the
		// search can stop past budget − tour.Length. The slack is
		// absolute: the difference can cancel to a few ulps, and a
		// vertex the exact test below would accept must still be
		// settled. It only lets the search settle a little more; the
		// exact test alone decides.
		s.reset()
		g.search(s, cur, network.VertexID(math.MaxUint32), budget-tour.Length+1e-9*budget)
		bestIdx := -1
		var bestRatio float64
		var bestEntry network.VertexID
		for i, c := range candidates {
			if visited[i] {
				continue
			}
			entry := streetStart(g.net, c.Street)
			d := s.dist[entry]
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
				bestEntry = entry
			}
		}
		if bestIdx == -1 {
			break // nothing reachable fits the budget
		}
		c := candidates[bestIdx]
		st := g.net.Street(c.Street)
		visited[bestIdx] = true
		nVisited++
		approach := g.reconstruct(cur, bestEntry, s.dist, s.prevV, s.prevS)
		tour.Stops = append(tour.Stops, Stop{
			Street:   c.Street,
			Name:     st.Name,
			Interest: c.Interest,
			Approach: approach,
		})
		tour.Length += approach.Length + st.Length()
		tour.Interest += c.Interest
		cur = streetEnd(g.net, c.Street)
	}
	// The leftovers outside the final position's component are
	// unreachable; the rest were over budget.
	for i, c := range candidates {
		if !visited[i] && g.comp[streetStart(g.net, c.Street)] != g.comp[cur] {
			tour.Unreached = append(tour.Unreached, Unreached{
				Street:   c.Street,
				Name:     g.net.Street(c.Street).Name,
				Interest: c.Interest,
			})
		}
	}
	return tour, nil
}

func (g *Graph) getSearch() *search {
	if s, ok := g.searches.Get().(*search); ok {
		return s
	}
	return newSearch(len(g.adj))
}

func (g *Graph) putSearch(s *search) {
	s.reset()
	g.searches.Put(s)
}

// streetStart returns the first vertex of the street's segment path.
func streetStart(net *network.Network, id network.StreetID) network.VertexID {
	return net.Segment(net.Street(id).Segments[0]).From
}

// streetEnd returns the last vertex of the street's segment path.
func streetEnd(net *network.Network, id network.StreetID) network.VertexID {
	segs := net.Street(id).Segments
	return net.Segment(segs[len(segs)-1]).To
}
