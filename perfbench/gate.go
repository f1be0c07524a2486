package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	soi "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/poi"
	"repro/internal/traj"
	"repro/internal/vocab"
)

// The response shapes of the served endpoints, decoded for comparison.
type streetJSON struct {
	Name     string
	Interest float64
	Mass     float64
}

type streetsJSON struct {
	Streets []streetJSON `json:"streets"`
}

type batchJSON struct {
	Results []struct {
		Streets []streetJSON `json:"streets"`
		Error   string       `json:"error"`
	} `json:"results"`
}

type summaryJSON struct {
	Street string
	Photos []struct {
		X, Y float64
		Tags []string
	}
	Objective      float64
	CandidateCount int
}

type routesJSON struct {
	Routes []struct {
		Polyline [][2]float64 `json:"polyline"`
		Streets  []string     `json:"streets"`
		Length   float64      `json:"length"`
		Interest float64      `json:"interest"`
		Score    float64      `json:"score"`
	} `json:"routes"`
}

type corridorsJSON struct {
	Streets []struct {
		Name     string  `json:"name"`
		Coverage float64 `json:"coverage"`
		Interest float64 `json:"interest"`
		Score    float64 `json:"score"`
	} `json:"streets"`
}

type tourJSON struct {
	Stops []struct {
		Street   string
		Interest float64
		Walk     float64
	}
	Length    float64
	Interest  float64
	Unreached []struct {
		Street   string
		Interest float64
	}
}

type poisJSON struct {
	Added     int    `json:"added"`
	Pending   int    `json:"pending"`
	Epoch     uint64 `json:"epoch"`
	Published bool   `json:"published"`
}

// same reports whether two floats are bit-identical.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diff collects the first mismatch of a comparison.
type diff struct{ err error }

func (d *diff) f(what string, got, want float64) {
	if d.err == nil && !same(got, want) {
		d.err = fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
}

func (d *diff) s(what string, got, want string) {
	if d.err == nil && got != want {
		d.err = fmt.Errorf("%s: got %q, want %q", what, got, want)
	}
}

func (d *diff) n(what string, got, want int) {
	if d.err == nil && got != want {
		d.err = fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
}

func compareStreets(d *diff, got []streetJSON, want []core.StreetResult) {
	d.n("streets", len(got), len(want))
	for i := 0; d.err == nil && i < len(got); i++ {
		d.s("street name", got[i].Name, want[i].Name)
		d.f("interest of "+want[i].Name, got[i].Interest, want[i].Interest)
		d.f("mass of "+want[i].Name, got[i].Mass, want[i].Mass)
	}
}

// checkAnswer compares one decoded HTTP answer to the request's
// reference answer, Float64bits-exact.
func checkAnswer(c *City, r *Request, body []byte) error {
	var d diff
	switch r.Op {
	case opStreets:
		var got streetsJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := c.refStreets(r.Query)
		if err != nil {
			return err
		}
		compareStreets(&d, got.Streets, want)
	case opBatch:
		var got batchJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		d.n("batch results", len(got.Results), len(r.Batch))
		for i := 0; d.err == nil && i < len(got.Results); i++ {
			if got.Results[i].Error != "" {
				return fmt.Errorf("batch member %d: %s", i, got.Results[i].Error)
			}
			want, err := c.refStreets(r.Batch[i])
			if err != nil {
				return err
			}
			compareStreets(&d, got.Results[i].Streets, want)
		}
	case opDescribe:
		var got summaryJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		rs, want, err := c.refDescribe(r.Street)
		if err != nil {
			return err
		}
		d.s("street", got.Street, r.Street)
		d.f("objective", got.Objective, want.Objective)
		d.n("candidates", got.CandidateCount, len(rs))
		d.n("photos", len(got.Photos), len(want.Selected))
		dict := c.Photos.Dict()
		for i := 0; d.err == nil && i < len(got.Photos); i++ {
			ph := rs[want.Selected[i]]
			d.f("photo x", got.Photos[i].X, ph.Loc.X)
			d.f("photo y", got.Photos[i].Y, ph.Loc.Y)
			d.s("photo tags", fmt.Sprint(got.Photos[i].Tags), fmt.Sprint(dict.Names(ph.Tags)))
		}
	case opRoute:
		var got routesJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, _, err := c.refRoutes(context.Background(), r.Route, 0)
		if err != nil {
			return err
		}
		d.n("routes", len(got.Routes), len(want))
		for i := 0; d.err == nil && i < len(got.Routes); i++ {
			g, w := got.Routes[i], want[i]
			d.f("length", g.Length, w.Length)
			d.f("interest", g.Interest, w.Interest)
			d.f("score", g.Score, w.Score)
			d.n("polyline", len(g.Polyline), len(w.Vertices))
			for j := 0; d.err == nil && j < len(g.Polyline); j++ {
				p := c.Net.Vertex(w.Vertices[j])
				d.f("polyline x", g.Polyline[j][0], p.X)
				d.f("polyline y", g.Polyline[j][1], p.Y)
			}
			d.s("streets", fmt.Sprint(g.Streets), fmt.Sprint(routeStreets(c, w)))
		}
	case opTraj:
		var got corridorsJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := c.refTraj(context.Background(), r.Traj)
		if err != nil {
			return err
		}
		d.n("corridor streets", len(got.Streets), len(want))
		for i := 0; d.err == nil && i < len(got.Streets); i++ {
			g, w := got.Streets[i], want[i]
			d.s("name", g.Name, w.Name)
			d.f("coverage", g.Coverage, w.Coverage)
			d.f("interest", g.Interest, w.Interest)
			d.f("score", g.Score, w.Score)
		}
	case opTour:
		var got tourJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := c.refTour(r.Tour)
		if err != nil {
			return err
		}
		d.f("tour length", got.Length, want.Length)
		d.f("tour interest", got.Interest, want.Interest)
		d.n("stops", len(got.Stops), len(want.Stops))
		for i := 0; d.err == nil && i < len(got.Stops); i++ {
			d.s("stop", got.Stops[i].Street, want.Stops[i].Name)
			d.f("stop interest", got.Stops[i].Interest, want.Stops[i].Interest)
			d.f("stop walk", got.Stops[i].Walk, want.Stops[i].Approach.Length)
		}
		d.n("unreached", len(got.Unreached), len(want.Unreached))
		for i := 0; d.err == nil && i < len(got.Unreached); i++ {
			d.s("unreached", got.Unreached[i].Street, want.Unreached[i].Name)
			d.f("unreached interest", got.Unreached[i].Interest, want.Unreached[i].Interest)
		}
	default:
		return fmt.Errorf("no reference for %v", r.Op)
	}
	return d.err
}

// routeStreets names a route's streets in walk order, consecutive
// duplicates collapsed, as the engine reports them.
func routeStreets(c *City, r traj.Route) []string {
	var out []string
	for _, sid := range r.Segments {
		name := c.Net.Street(c.Net.Segment(sid).Street).Name
		if n := len(out); n == 0 || out[n-1] != name {
			out = append(out, name)
		}
	}
	return out
}

// gate sends every distinct request of the pool through HTTP, checks
// each answer against its reference, and returns the accepted body hash
// of each pool entry. gateWorkers requests are in flight at once; the
// gate is not timed.
func gate(c *City, cl *Client, pool []*Request) ([]uint64, error) {
	hashes := make([]uint64, len(pool))
	var (
		mu       sync.Mutex
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	for w := 0; w < gateWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if stop || i >= len(pool) {
					return
				}
				if err := gateOne(c, cl, pool[i], &hashes[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s %s: %w", pool[i].Method, pool[i].Path, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return hashes, firstErr
}

const gateWorkers = 4

func gateOne(c *City, cl *Client, r *Request, hash *uint64) error {
	status, h, _, body, err := cl.Do(r, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	*hash = h
	return checkAnswer(c, r, body)
}

// checkTimed verifies the timed phases' answers after the window: every
// successful read must carry the body the gate accepted for it.
func checkTimed(hashes []uint64, phases ...[]Sample) (mismatches int) {
	for _, ss := range phases {
		for i := range ss {
			s := &ss[i]
			if s.OK && s.Pool >= 0 && s.Hash != hashes[s.Pool] {
				mismatches++
			}
		}
	}
	return mismatches
}

// checkWrites verifies the live writer after the run: every write
// appended its POIs, every publish installed the next epoch with nothing
// pending, and the writer keyword's k-SOI answer over HTTP equals the
// reference over the base corpus plus every published POI. A run whose
// writes failed cannot be verified and reports so.
func checkWrites(c *City, cl *Client, writes []Sample) error {
	var published []*Request
	var pending []*Request
	epoch := uint64(1)
	for i := range writes {
		s := &writes[i]
		if !s.OK {
			return fmt.Errorf("write %d failed (status %d); visibility not verifiable", i, s.Status)
		}
		var got poisJSON
		if err := json.Unmarshal(s.Body, &got); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		if got.Added != len(s.Req.POIs) {
			return fmt.Errorf("write %d added %d POIs, sent %d", i, got.Added, len(s.Req.POIs))
		}
		pending = append(pending, s.Req)
		if s.Req.Op == opPublish {
			epoch++
			if !got.Published || got.Pending != 0 || got.Epoch != epoch {
				return fmt.Errorf("publish %d: got %+v, want epoch %d with nothing pending", i, got, epoch)
			}
			published = append(published, pending...)
			pending = nil
		}
	}
	q := core.Query{Keywords: []string{writerKeyword}, K: 20, Epsilon: epsValues[1]}
	want, err := refWithWrites(c, published, q)
	if err != nil {
		return err
	}
	r := streetsRequest(q)
	status, _, _, body, err := cl.Do(r, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("writer keyword query: status %d", status)
	}
	var got streetsJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var d diff
	compareStreets(&d, got.Streets, want)
	if d.err == nil && len(published) > 0 && len(want) == 0 {
		return errors.New("published POIs matched no street")
	}
	return d.err
}

// refWithWrites evaluates q on a fresh slab index over the base corpus
// followed by the published writes, in order — the corpus a live epoch
// folds.
func refWithWrites(c *City, writes []*Request, q core.Query) ([]core.StreetResult, error) {
	pb := poi.NewBuilder(vocab.NewDictionary())
	dict := c.POIs.Dict()
	for i := 0; i < c.POIs.Len(); i++ {
		p := c.POIs.Get(poi.ID(i))
		pb.AddWeighted(p.Loc, dict.Names(p.Keywords), p.Weight)
	}
	for _, w := range writes {
		for _, p := range w.POIs {
			pb.AddWeighted(geo.Pt(p.X, p.Y), p.Keywords, p.Weight)
		}
	}
	six, err := core.NewSlabIndex(c.Net, pb.Build(), core.IndexConfig{CellSize: soi.DefaultCellSize})
	if err != nil {
		return nil, err
	}
	res, _, err := six.SOI(q)
	return res, err
}
