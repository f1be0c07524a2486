package traj

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/faults"
	"repro/internal/network"
)

// RouteQuery asks for the k most interesting loopless routes between two
// network vertices under a walking-length budget. The score of a route
// blends accumulated segment interest with travel cost:
//
//	score = Σ interest(ℓ) over traversed segments − α · length
//
// α = 0 ranks purely by collected interest; larger α penalizes detours.
type RouteQuery struct {
	Src, Dst network.VertexID
	// K is the number of routes to return.
	K int
	// Budget caps the route's total walking length (segments plus
	// connectors), in coordinate units.
	Budget float64
	// Alpha is the travel-cost weight α (per unit length).
	Alpha float64
}

// Validate reports whether the query is well formed for the graph.
func (q RouteQuery) Validate(g *Graph) error {
	if q.K <= 0 {
		return fmt.Errorf("traj: non-positive k %d", q.K)
	}
	if math.IsNaN(q.Budget) || math.IsInf(q.Budget, 0) {
		return fmt.Errorf("traj: non-finite budget %v", q.Budget)
	}
	if q.Budget <= 0 {
		return fmt.Errorf("traj: non-positive budget %v", q.Budget)
	}
	if math.IsNaN(q.Alpha) || math.IsInf(q.Alpha, 0) {
		return fmt.Errorf("traj: non-finite alpha %v", q.Alpha)
	}
	if q.Alpha < 0 {
		return fmt.Errorf("traj: negative alpha %v", q.Alpha)
	}
	if int(q.Src) >= g.NumVertices() || int(q.Dst) >= g.NumVertices() {
		return fmt.Errorf("traj: vertex out of range (src=%d dst=%d of %d)", q.Src, q.Dst, g.NumVertices())
	}
	return nil
}

// Route is one ranked answer of a k-routes query: a vertex-simple path
// from source to destination.
type Route struct {
	// Vertices is the walked vertex sequence, source first.
	Vertices []network.VertexID
	// Segments are the traversed street segments in walk order
	// (connector hops contribute length but no segment).
	Segments []network.SegmentID
	// Length is the total walked length including connectors.
	Length float64
	// Interest is the summed segment interest collected along the path,
	// accumulated in traversal order.
	Interest float64
	// Score is Interest − α·Length, the ranking key.
	Score float64
}

// SearchStats reports the work one route search performed. A pair whose
// shortest path is longer than the budget (or that is disconnected) is
// answered before the search starts, so its stats are all zero.
type SearchStats struct {
	// Expansions counts partial paths popped from the frontier.
	Expansions int
	// Generated counts partial paths pushed onto the frontier.
	Generated int
	// PrunedBudget counts extensions discarded because no completion
	// within the length budget is possible (exact overrun, or the
	// Dijkstra remaining-distance bound).
	PrunedBudget int
	// PrunedBound counts partials discarded because their admissible
	// score upper bound fell below the current kth-best completion.
	PrunedBound int
	// Completed counts source→destination paths found within budget.
	Completed int
}

// SearchOptions tunes the search's resource guards.
type SearchOptions struct {
	// MaxExpansions bounds frontier pops before the search gives up with
	// ErrSearchBudget; 0 means DefaultMaxExpansions.
	MaxExpansions int
}

// DefaultMaxExpansions is the expansion guard used when SearchOptions
// leaves it zero — far above any harness world, low enough to bound a
// pathological serving query.
const DefaultMaxExpansions = 500_000

// ErrSearchBudget is returned when the search exceeds its expansion
// guard before the frontier drains.
var ErrSearchBudget = errors.New("traj: route search exceeded its expansion budget")

// ctxPollInterval is how many frontier pops pass between context polls.
const ctxPollInterval = 64

// boundSlack is the relative slack the bound-pruning test concedes to
// floating point: a partial is pruned only when its upper bound is below
// the kth-best score by more than this relative margin, so last-bit
// rounding in the (admissible) bound can never eliminate a true top-k
// path. Pruning therefore only removes strict losers, and the final
// canonical sort makes the answer independent of pruning decisions.
const boundSlack = 1e-9

// partial is one frontier entry: a vertex-simple path from the source,
// stored as its last hop and a pointer to the path it extends. A child
// is one fixed-size record however long its path is; vertex and segment
// slices are built only for the routes returned.
type partial struct {
	parent *partial
	// v is the path's last vertex and seg the edge that entered it
	// (ConnectorSeg for a connector hop and for the source).
	v   network.VertexID
	seg int32
	// depth counts the path's hops, nseg its street segments.
	depth, nseg int32
	length      float64
	interest    float64
	// remPos is the positive interest not yet collected by this path,
	// over the budget-feasible segment set.
	remPos float64
	// ub is the admissible score upper bound: collected interest, plus
	// the uncollected positive interest still collectible within the
	// remaining budget, minus α times the best-case completed length.
	ub float64
}

// route materializes a completed path.
func (p *partial) route(alpha float64) Route {
	verts := make([]network.VertexID, p.depth+1)
	i := p.depth
	for n := p; n != nil; n = n.parent {
		verts[i] = n.v
		i--
	}
	var segs []network.SegmentID
	if p.nseg > 0 {
		segs = p.segments(nil)
	}
	return Route{
		Vertices: verts,
		Segments: segs,
		Length:   p.length,
		Interest: p.interest,
		Score:    p.interest - alpha*p.length,
	}
}

// segments writes p's segment sequence into buf's storage.
func (p *partial) segments(buf []network.SegmentID) []network.SegmentID {
	buf = slices.Grow(buf[:0], int(p.nseg))[:p.nseg]
	j := p.nseg
	for n := p; n != nil; n = n.parent {
		if n.seg != ConnectorSeg {
			j--
			buf[j] = network.SegmentID(n.seg)
		}
	}
	return buf
}

// lessPath orders two partials by their vertex sequences exactly as
// lessVertSeq orders the materialized slices. Both chains end at the
// same source partial, so the walk lifts the deeper one to the other's
// depth, then climbs both to their common ancestor, remembering the
// topmost position where the vertices differ. It allocates nothing.
func lessPath(a, b *partial) bool {
	shorter := a.depth < b.depth
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	differ := false
	var av, bv network.VertexID
	for a != b {
		if a.v != b.v {
			differ, av, bv = true, a.v, b.v
		}
		a, b = a.parent, b.parent
	}
	if differ {
		return av < bv
	}
	return shorter
}

// frontier orders partials best-first: upper bound descending, then
// length ascending, then lexicographic vertex sequence — a total,
// deterministic order. Each slot carries the two leading keys inline, so
// most comparisons never load the partial itself.
type frontier []frontEntry

type frontEntry struct {
	ub, length float64
	p          *partial
}

func (f frontier) less(i, j int) bool {
	a, b := &f[i], &f[j]
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	if a.length != b.length {
		return a.length < b.length
	}
	return lessPath(a.p, b.p)
}

// push and pop sift exactly as container/heap does, so partials that
// tie on every key (parallel edges) still pop in a fixed order.
func (f *frontier) push(p *partial) {
	h := append(*f, frontEntry{ub: p.ub, length: p.length, p: p})
	*f = h
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (f *frontier) pop() *partial {
	h := *f
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	p := h[n].p
	h[n] = frontEntry{} // a pooled frontier must not pin popped paths
	*f = h[:n]
	return p
}

func lessVertSeq(a, b []network.VertexID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lessSegSeq(a, b []network.SegmentID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// SortRoutes puts routes in the canonical answer order: score
// descending, then length ascending, then lexicographic vertex sequence,
// then lexicographic segment sequence (parallel edges). The brute-force
// oracle finishes with this sort and the pruned search orders its
// completions by the same keys, so their answers are comparable rank by
// rank.
func SortRoutes(rs []Route) {
	sortRoutesBy(rs, func(a, b Route) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Length != b.Length {
			return a.Length < b.Length
		}
		if v := lessVertSeq(a.Vertices, b.Vertices); v || lessVertSeq(b.Vertices, a.Vertices) {
			return v
		}
		return lessSegSeq(a.Segments, b.Segments)
	})
}

func sortRoutesBy(rs []Route, less func(a, b Route) bool) {
	// Insertion sort: route lists are small (k plus survivors) and the
	// comparator is total, so stability concerns do not arise.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// TopKRoutes runs the best-first k most interesting routes search. The
// frontier holds vertex-simple partial paths ordered by an admissible
// score upper bound — collected interest, plus the uncollected positive
// interest still collectible within the remaining budget, minus α times
// the best-case completed length (newLen + distToDst) — so the bound
// keeps tightening, and therefore pruning, even at α = 0. Partials are
// pruned when they cannot reach the destination within the budget
// (Dijkstra remaining-distance bound) or when their upper bound falls
// below the kth-best completed score by more than a float-safety
// margin. Per-segment interests are only evaluated for segments some
// budget-feasible path can traverse. Interest and length are accumulated
// strictly in traversal order, so a route's score is bit-identical to
// the brute-force oracle's for the same path, and the canonical final
// sort makes the ranking independent of exploration order.
//
// Both distance searches stop at the (slack-extended) budget, so a
// query's work follows the region its budget can reach, not the size of
// the graph. Partials are parent-pointer chains on pooled scratch; only
// the k returned routes get vertex and segment slices.
//
// A source/destination pair that is unreachable, or farther apart than
// the budget, yields an empty answer with zero SearchStats, not an
// error. The search observes ctx at a cooperative polling interval.
func TopKRoutes(ctx context.Context, g *Graph, interest InterestFunc, q RouteQuery, opt SearchOptions) ([]Route, SearchStats, error) {
	var st SearchStats
	if err := q.Validate(g); err != nil {
		return nil, st, err
	}
	maxExp := opt.MaxExpansions
	if maxExp <= 0 {
		maxExp = DefaultMaxExpansions
	}

	budgetCap := q.Budget * (1 + boundSlack)

	// Both distance searches stop at budgetCap, on scratch pooled per
	// graph. Every prune below compares a sum of non-negative terms that
	// includes one of these distances against budgetCap, so a vertex past
	// it is pruned whether it reads as its true distance or as +Inf. A
	// source past it has no route within the budget: the same empty
	// answer as a disconnected pair.
	s := g.getScratch()
	defer g.putScratch(s)
	g.grow(&s.toDst, q.Dst, budgetCap)
	distToDst := s.toDst.dist
	if math.IsInf(distToDst[q.Src], 1) {
		return []Route{}, st, nil
	}
	g.grow(&s.fromSrc, q.Src, budgetCap)
	distFromSrc := s.fromSrc.dist

	// Exact per-segment interests, computed once — but only for segments
	// some budget-feasible path can traverse (a directed edge u→v with
	// distFromSrc[u] + len + distToDst[v] within the slack-extended
	// budget). Every other segment is unreachable by the search, so its
	// interest fold is never needed and contributes nothing to any bound.
	// Only settled vertices can start such an edge; they are scanned in
	// ascending id so interests are evaluated in a fixed order.
	interests, evaluated := s.interests, s.evaluated
	// needs/prefixPos support the per-partial collectible bound: a
	// completion suffix that traverses segment s and then reaches the
	// destination is at least need(s) = len(s) + min(distToDst over s's
	// endpoints) long, so a partial with remaining budget r can only
	// still collect segments with need ≤ r. Sorting feasible positive
	// interests by need with a prefix sum turns "positive interest still
	// collectible within r" into one binary search.
	entries := s.entries[:0]
	slices.Sort(s.fromSrc.settled)
	for _, u := range s.fromSrc.settled {
		du := distFromSrc[u]
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
			s.evalSegs = append(s.evalSegs, e.Seg)
			iv := interest(network.SegmentID(e.Seg))
			interests[e.Seg] = iv
			if iv > 0 {
				entries = append(entries, needEntry{
					need: e.Len + math.Min(distToDst[u], distToDst[e.To]),
					pos:  iv,
				})
			}
		}
	}
	slices.SortStableFunc(entries, func(a, b needEntry) int { return cmp.Compare(a.need, b.need) })
	s.entries = entries
	needs := s.needs[:0]
	prefixPos := append(s.prefixPos[:0], 0)
	for i, en := range entries {
		needs = append(needs, en.need)
		prefixPos = append(prefixPos, prefixPos[i]+en.pos)
	}
	s.needs, s.prefixPos = needs, prefixPos
	// reachPos bounds the positive interest collectible with remaining
	// budget r. posTotal is reachPos over the whole budget: the sum of
	// every feasible positive interest.
	reachPos := func(r float64) float64 {
		return prefixPos[sort.Search(len(needs), func(i int) bool { return needs[i] > r })]
	}
	posTotal := prefixPos[len(entries)]

	completions := s.done[:0]
	// top holds the k best completion scores; threshold is its minimum
	// once full.
	top := s.top[:0]
	threshold := math.Inf(-1)

	f := s.front[:0]
	// The frontier, score heap and completions go back to the scratch
	// however the search ends; putScratch drops what they point to.
	defer func() { s.front, s.top, s.done = f, top, completions }()
	root := s.nodes.alloc()
	*root = partial{
		v:      q.Src,
		seg:    ConnectorSeg,
		remPos: posTotal,
		ub:     posTotal - q.Alpha*distToDst[q.Src],
	}
	f.push(root)

	for len(f) > 0 {
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
		p := f.pop()
		st.Expansions++
		if belowThreshold(p.ub, threshold) {
			st.PrunedBound++
			continue
		}
		if p.v == q.Dst {
			// A vertex-simple path cannot revisit the destination, so
			// this partial is exactly one completed route.
			score := p.interest - q.Alpha*p.length
			completions = append(completions, completed{score, p})
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
		onPath := s.markPath(p)
		for _, e := range g.adj[p.v] {
			if s.mark[e.To] == onPath {
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
			nseg := p.nseg
			if e.Seg != ConnectorSeg {
				iv := interests[e.Seg]
				newInterest += iv
				if iv > 0 {
					newRemPos -= iv
				}
				nseg++
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
			child := s.nodes.alloc()
			*child = partial{
				parent:   p,
				v:        e.To,
				seg:      e.Seg,
				depth:    p.depth + 1,
				nseg:     nseg,
				length:   newLen,
				interest: newInterest,
				remPos:   newRemPos,
				ub:       ub,
			}
			f.push(child)
			st.Generated++
		}
	}

	if len(completions) == 0 {
		return nil, st, nil
	}
	// The canonical order of SortRoutes, taken on the paths themselves,
	// so only the k returned routes are ever materialized.
	slices.SortFunc(completions, s.compareCompleted)
	routes := make([]Route, min(q.K, len(completions)))
	for i := range routes {
		routes[i] = completions[i].p.route(q.Alpha)
	}
	return routes, st, nil
}

// completed is a partial that reached the destination, with its score.
type completed struct {
	score float64
	p     *partial
}

// compareCompleted orders completions as SortRoutes orders their routes:
// score descending, length ascending, then vertex and segment sequence.
// The order is total — two distinct simple paths differ in a vertex or
// in the edge between two — so any sort yields SortRoutes' answer.
func (s *scratch) compareCompleted(a, b completed) int {
	switch {
	case a.score != b.score:
		return boolCmp(a.score > b.score)
	case a.p.length != b.p.length:
		return boolCmp(a.p.length < b.p.length)
	case lessPath(a.p, b.p):
		return -1
	case lessPath(b.p, a.p):
		return 1
	}
	s.segsA, s.segsB = a.p.segments(s.segsA), b.p.segments(s.segsB)
	return slices.Compare(s.segsA, s.segsB)
}

// boolCmp maps "sorts first" to -1 and its negation to 1.
func boolCmp(first bool) int {
	if first {
		return -1
	}
	return 1
}

// belowThreshold reports whether an admissible upper bound is so far
// under the kth-best score that the partial can be discarded even after
// conceding a relative float-rounding margin.
func belowThreshold(ub, threshold float64) bool {
	if math.IsInf(threshold, -1) {
		return false
	}
	slack := boundSlack * (math.Abs(ub) + math.Abs(threshold) + 1)
	return ub+slack < threshold
}

// scoreHeap is a min-heap of the best completion scores seen so far.
type scoreHeap []float64

func (h scoreHeap) Len() int            { return len(h) }
func (h scoreHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h scoreHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *scoreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// needEntry is one feasible positive-interest segment of the
// collectible bound: the shortest suffix that still collects it, and
// its interest.
type needEntry struct{ need, pos float64 }

// scratch is the working memory of one route search, pooled per Graph.
// The graph-sized arrays are reset between searches by undoing only
// what a search wrote, so a search's cost follows its budget ball, not
// the size of the city.
type scratch struct {
	toDst, fromSrc ball
	// interests and evaluated are indexed by segment id; evalSegs lists
	// the segments whose entries were written.
	interests []float64
	evaluated []bool
	evalSegs  []int32
	entries   []needEntry
	needs     []float64
	prefixPos []float64
	// mark stamps the vertices of the partial being expanded with epoch,
	// so the loopless test is one load per edge.
	mark  []uint32
	epoch uint32
	nodes arena
	front frontier
	top   scoreHeap
	done  []completed
	// segsA and segsB hold segment sequences while two completions that
	// tie on every other key are compared.
	segsA, segsB []network.SegmentID
}

// arena hands out the partials of one search from chunks kept across
// searches: a search's partials all die when it ends, so the chunks are
// reused instead of collected one partial at a time. Completed routes
// copy their paths out, so nothing outside the search points in.
type arena struct {
	chunks [][]partial
	n      int // partials handed out by the current search
}

const (
	arenaChunk = 512
	// arenaKeep caps the chunks kept for the next search, so one huge
	// search does not pin its memory in the pool.
	arenaKeep = 64
)

func (a *arena) alloc() *partial {
	c, i := a.n/arenaChunk, a.n%arenaChunk
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]partial, arenaChunk))
	}
	a.n++
	return &a.chunks[c][i]
}

func (a *arena) reset() {
	if len(a.chunks) > arenaKeep {
		clear(a.chunks[arenaKeep:])
		a.chunks = a.chunks[:arenaKeep]
	}
	a.n = 0
}

func (g *Graph) getScratch() *scratch {
	if s, ok := g.scratch.Get().(*scratch); ok {
		return s
	}
	n, m := len(g.adj), g.net.NumSegments()
	return &scratch{
		toDst:     ball{dist: infs(n), track: true},
		fromSrc:   ball{dist: infs(n), track: true},
		interests: make([]float64, m),
		evaluated: make([]bool, m),
		mark:      make([]uint32, n),
	}
}

func (g *Graph) putScratch(s *scratch) {
	s.toDst.reset()
	s.fromSrc.reset()
	for _, sid := range s.evalSegs {
		s.evaluated[sid] = false
		s.interests[sid] = 0
	}
	s.evalSegs = s.evalSegs[:0]
	s.nodes.reset()
	clear(s.front)
	s.front = s.front[:0]
	s.top = s.top[:0]
	clear(s.done)
	s.done = s.done[:0]
	g.scratch.Put(s)
}

// markPath stamps p's vertices with a fresh epoch and returns it.
func (s *scratch) markPath(p *partial) uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	for n := p; n != nil; n = n.parent {
		s.mark[n.v] = s.epoch
	}
	return s.epoch
}

func infs(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	return d
}
