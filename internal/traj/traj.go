// Package traj opens the trajectory query family over the road network:
// the k most interesting routes between two points (a best-first path
// search whose edge weight blends travel cost with per-segment interest
// mass) and trajectory-aware SOI (streets ranked by interest restricted
// to corridors actually traveled by user movement traces).
//
// Both queries are deliberately split from their inputs' provenance: the
// search and the matcher consume a per-segment interest function, so the
// production engine can plug in the slab index's segment mass folds while
// the brute-force oracle plugs in its exhaustive pairwise scan. Because
// the index's SegmentMass is pinned bit-identical to the oracle's (the
// metamorphic suite's per-segment differential), the two sides feed the
// search identical floats — any disagreement in the answers isolates a
// bug in the search or the pruning, which is exactly what the
// differential harness wants to test.
//
// Determinism contract: every result list is canonically ordered (score
// descending, then length ascending, then lexicographic vertex sequence
// for routes; score descending then ascending street id for corridor
// rankings), path sums are accumulated in traversal order, and all
// tie-breaks are explicit — so answers are reproducible bit for bit
// across runs, worker counts and pruning decisions.
package traj

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/network"
)

// InterestFunc returns the exact interest of one segment under the
// query's keyword set and ε (Def. 2). The production engine backs it
// with the index's segment mass fold; the oracle with an exhaustive
// scan. It must be deterministic and non-negative.
type InterestFunc func(sid network.SegmentID) float64

// ConnectorSeg marks an adjacency edge that is a pedestrian connector
// between two near-miss vertices rather than a street segment.
const ConnectorSeg = int32(-1)

// Edge is one adjacency entry of the trajectory graph.
type Edge struct {
	To network.VertexID
	// Seg is the traversed segment id, or ConnectorSeg.
	Seg int32
	// Len is the edge's walking length.
	Len float64
}

// Graph is the adjacency-list view of the network the trajectory queries
// search over: every street segment as a bidirectional edge plus
// pedestrian connectors joining vertices closer than the snap radius.
// Adjacency lists are canonically sorted (ascending target vertex, then
// ascending segment id), so exploration order is deterministic.
type Graph struct {
	net *network.Network
	adj [][]Edge
	// scratch pools per-query route-search state (*scratch) sized to
	// this graph.
	scratch sync.Pool
}

// NewGraph builds the trajectory graph. A positive snap joins every
// vertex pair closer than snap with a connector edge weighted by its
// Euclidean distance (grid-bucketed, so construction is near-linear);
// snap <= 0 keeps only street segments.
func NewGraph(net *network.Network, snap float64) *Graph {
	g := &Graph{net: net, adj: make([][]Edge, net.NumVertices())}
	for _, seg := range net.Segments() {
		g.adj[seg.From] = append(g.adj[seg.From], Edge{To: seg.To, Seg: int32(seg.ID), Len: seg.Length()})
		g.adj[seg.To] = append(g.adj[seg.To], Edge{To: seg.From, Seg: int32(seg.ID), Len: seg.Length()})
	}
	if snap > 0 && net.NumVertices() > 0 {
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
							continue // each pair once, no self loops
						}
						if d := pv.Dist(net.Vertex(u)); d <= snap {
							g.adj[vid] = append(g.adj[vid], Edge{To: u, Seg: ConnectorSeg, Len: d})
							g.adj[u] = append(g.adj[u], Edge{To: vid, Seg: ConnectorSeg, Len: d})
						}
					}
				}
			}
		}
	}
	for v := range g.adj {
		es := g.adj[v]
		sort.Slice(es, func(i, j int) bool {
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			return es[i].Seg < es[j].Seg
		})
	}
	return g
}

// Network returns the underlying road network.
func (g *Graph) Network() *network.Network { return g.net }

// Adjacent returns the canonical adjacency list of a vertex. The slice
// is shared with the graph and must not be mutated.
func (g *Graph) Adjacent(v network.VertexID) []Edge { return g.adj[v] }

// NumVertices returns the graph's vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// DefaultSnapFactor sizes the connector snap radius relative to the
// network's mean segment length. It is deliberately tighter than the
// tour planner's 1.5 so the path search's branching factor stays small.
const DefaultSnapFactor = 0.75

// DefaultSnap returns the connector snap radius used when callers have
// no better estimate: DefaultSnapFactor times the mean segment length
// (0 for an empty network).
func DefaultSnap(net *network.Network) float64 {
	st := net.Stats()
	if st.NumSegments == 0 {
		return 0
	}
	return DefaultSnapFactor * st.TotalLen / float64(st.NumSegments)
}

// NearestVertex snaps a free point to the network vertex nearest to it,
// breaking exact distance ties by the lowest vertex id. The boolean is
// false only for an empty network.
func NearestVertex(net *network.Network, p geo.Point) (network.VertexID, bool) {
	if net.NumVertices() == 0 {
		return 0, false
	}
	best := network.VertexID(0)
	bestD := p.DistSq(net.Vertex(0))
	for v := 1; v < net.NumVertices(); v++ {
		if d := p.DistSq(net.Vertex(network.VertexID(v))); d < bestD {
			best, bestD = network.VertexID(v), d
		}
	}
	return best, true
}

// Distances runs Dijkstra from src over the whole graph, returning the
// shortest walking distance to every vertex (+Inf when unreachable). It
// is the full-graph reference for the budget-bounded searches TopKRoutes
// runs on pooled scratch: both settle vertices in the same order, so
// every distance a bounded search settles equals this one bit for bit.
func (g *Graph) Distances(src network.VertexID) []float64 {
	b := ball{dist: infs(len(g.adj))}
	if int(src) < len(g.adj) {
		g.grow(&b, src, math.Inf(1))
	}
	return b.dist
}

// ball is the state of one Dijkstra search. dist holds +Inf for every
// vertex the search has not settled. A tracked ball also lists the
// settled vertices in settle order and every vertex whose dist was ever
// written, so reset restores it in time proportional to the search, not
// to the graph; a one-shot full search skips that bookkeeping.
type ball struct {
	dist    []float64
	track   bool
	settled []network.VertexID
	touched []network.VertexID
	heap    distHeap
}

// grow runs Dijkstra from src into a reset ball and stops at the first
// pop farther than limit. Vertices are settled in ascending (distance,
// vertex) order — a total order — so the settled prefix and its
// distances do not depend on where the search stops. Vertices reached
// but left unsettled read as +Inf afterwards: their tentative distance
// exceeds limit, and a bounded caller must not tell them apart from
// unreachable ones. A finite limit needs a tracked ball.
func (g *Graph) grow(b *ball, src network.VertexID, limit float64) {
	b.dist[src] = 0
	if b.track {
		b.touched = append(b.touched, src)
	}
	h := append(b.heap[:0], distItem{v: src, d: 0})
	stopped := false
	for h.Len() > 0 {
		it := h.pop()
		if it.d > limit {
			stopped = true
			break
		}
		if it.d > b.dist[it.v] {
			continue
		}
		if b.track {
			b.settled = append(b.settled, it.v)
		}
		for _, e := range g.adj[it.v] {
			if nd := it.d + e.Len; nd < b.dist[e.To] {
				if b.track && math.IsInf(b.dist[e.To], 1) {
					b.touched = append(b.touched, e.To)
				}
				b.dist[e.To] = nd
				h.push(distItem{v: e.To, d: nd})
			}
		}
	}
	if stopped {
		for _, v := range b.touched {
			if b.dist[v] > limit {
				b.dist[v] = math.Inf(1)
			}
		}
	}
	b.heap = h[:0]
}

// reset returns a ball to all +Inf, touching only what the last search
// wrote.
func (b *ball) reset() {
	for _, v := range b.touched {
		b.dist[v] = math.Inf(1)
	}
	b.touched = b.touched[:0]
	b.settled = b.settled[:0]
}

type distItem struct {
	v network.VertexID
	d float64
}

// distHeap is a minimal binary min-heap over (distance, vertex).
type distHeap []distItem

func (h distHeap) Len() int { return len(h) }

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].less((*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].less((*h)[smallest]) {
			smallest = l
		}
		if r < n && (*h)[r].less((*h)[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

func (a distItem) less(b distItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}
