package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "traffic mix: routes, scatter, live, or all to run each in turn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		res, err := runBench(name, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.print(os.Stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// rateFromBenchmark reads a workload's open-loop rate from the "why" of
// its BENCHMARK.json entry ("... Open loop at N req/s.").
func rateFromBenchmark(path, workload string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	re := regexp.MustCompile(`(?i)open loop at ([0-9.]+) req/s`)
	for _, w := range b.Workloads {
		if w.Name != workload {
			continue
		}
		m := re.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("%s: workload %q states no open-loop rate", path, workload)
		}
		return strconv.ParseFloat(m[1], 64)
	}
	return 0, fmt.Errorf("%s lists no workload %q", path, workload)
}

// endToEnd lists the end-to-end metrics of an untraced run with their
// units, in BENCHMARK.json order. The report also prints p99_ms, each
// operation's p50 and failed_ratio, which are not gated: on a shared
// 2-CPU box the open-loop p99's run-to-run spread (IQR/median 0.2-0.6
// over seeds) exceeds any regression bound worth setting, a per-operation
// metric does not exist on every workload, and failed_ratio is 0 on a
// healthy run (failures are gated through "failed" instead).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
}

// setupRepeats is how many times a run builds its stack; setup_s is the
// median.
const setupRepeats = 5

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	// Extra holds the metrics the printed report shows but the JSON line
	// leaves out (per-operation medians, failed_ratio).
	Extra map[string]Metric
	Meta  map[string]any
	Notes []string
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Result) print(w *os.File) {
	fmt.Fprintln(w, "== perfbench", r.Meta["workload"], "seed", r.Meta["seed"])
	meta, _ := json.Marshal(r.Meta)
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	all := map[string]Metric{}
	for k, v := range r.Extra {
		all[k] = v
	}
	for k, v := range r.Metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, all[n].Value, all[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(w, string(line))
}

func runBench(name string, seed int64, seconds float64, traced bool) (*Result, error) {
	rate, err := rateFromBenchmark("BENCHMARK.json", name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := loadCity()
	if err != nil {
		return nil, err
	}
	w, err := generate(c, name, seed, rate, seconds)
	prepS := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	warm := warmSetOf(c, w)
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.Close()

	// Set up several times and keep the last stack; earlier ones are
	// torn down before the next build so only one is resident. heap_mb
	// counts the corpora plus what the last stack added to the heap, not
	// the benchmark's own references and requests.
	base := heapLive()
	calSetup := []float64{cal.window()}
	var setups []float64
	var st *Stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.Close()
		}
		var opt setupOptions
		var tr *countingTransport
		if traced && name == "scatter" {
			tr = newCountingTransport()
			opt.Transport = tr
		}
		t := time.Now()
		st, err = setup(c, name, warm, opt)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		st.transport = tr
	}
	defer st.Close()
	calSetup = append(calSetup, cal.window())
	heapMB := (float64(c.CorpusHeap) + float64(heapLive()) - float64(base)) / (1 << 20)

	gcl := newClient(st.URL, gateWorkers)
	t0 = time.Now()
	hashes, err := gate(c, gcl, w.Pool)
	gcl.Close()
	res := &Result{Correct: true, Metrics: map[string]Metric{}, Extra: map[string]Metric{}}
	res.Meta = runMeta(c, w, seed, seconds, traced)
	res.Meta["prepare_s"] = prepS
	res.Meta["gate_s"] = time.Since(t0).Seconds()
	if err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "answer gate: "+err.Error())
		// Nothing timed can be trusted against a failed gate.
		return res, nil
	}

	cl := newClient(st.URL, maxConns)
	defer cl.Close()
	sch := w.Sched
	var epochsMax int64
	var wcl *Client
	if len(w.Writes) > 0 {
		wcl = newClient(st.URL, 1)
		defer wcl.Close()
	}
	stopPoll := pollEpochs(st, &epochsMax)
	var before *counters
	load := runLoad(cl, wcl, w, sch, time.Now(), func() {
		if traced {
			before = readCounters(st)
		}
	}, cal)
	stopPoll()
	closed, open := load.Closed, load.Open
	writes := append(append([]Sample(nil), load.ClosedWrites...), load.OpenWrites...)
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].Start < writes[j].Start })
	var after *counters
	if traced {
		after = readCounters(st)
	}

	if n := checkTimed(hashes, closed, open); n > 0 {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("%d timed answers differ from the gated answers", n))
	}
	if len(w.Writes) > 0 {
		if err := checkWrites(c, cl, writes); err != nil {
			res.Correct = false
			res.Notes = append(res.Notes, "live writer: "+err.Error())
		}
	}

	// Writes sent during an open-loop window are part of its traffic;
	// the warm-up cycle is part of no metric.
	var openAll []Sample
	for _, ph := range [][]Sample{open, load.OpenWrites} {
		for _, s := range ph {
			if s.Win >= 0 {
				openAll = append(openAll, s)
			}
		}
	}
	res.Attempted, res.Failed = tally(closed, open, writes)
	phaseMeta(res, closed, openAll, writes)

	if traced {
		if err := tracedMetrics(res, c, w, st, before, after, load, epochsMax, seconds); err != nil {
			return nil, err
		}
		return res, nil
	}

	// The timings are scaled to the reference host speed (calib.go); the
	// raw figures are printed beside them.
	setupScale := (calSetup[0] + calSetup[1]) / 2 / calRefRPS
	res.set("setup_s", median(setups)*setupScale, "s")
	res.Extra["setup_raw_s"] = Metric{median(setups), "s"}
	res.set("heap_mb", heapMB, "MiB")
	rates := windowRates(closed, sch)
	p50s := windowMedians(openAll, sch.Cycles)
	scales := calScales(load.Cal)
	res.Meta["window_rps"], res.Meta["window_p50_ms"], res.Meta["window_cal_rps"] = rates, p50s, load.Cal
	res.Meta["setup_cal_rps"] = calSetup
	calRates := make([]float64, len(rates))
	calP50s := make([]float64, len(p50s))
	for k := range rates {
		calRates[k] = rates[k] / scales[k]
		calP50s[k] = p50s[k] * scales[k]
	}
	res.set("throughput_rps", median(calRates), "1/s")
	res.set("p50_ms", median(calP50s), "ms")
	res.Extra["throughput_raw_rps"] = Metric{median(rates), "1/s"}
	res.Extra["p50_raw_ms"] = Metric{median(p50s), "ms"}
	res.Extra["calibration_rps"] = Metric{median(load.Cal), "1/s"}
	// p99 pools every open-loop window: a window holds too few requests
	// for a p99 of its own to have ten samples beyond it. It is printed,
	// not gated: see endToEnd.
	res.Extra["p99_ms"] = Metric{quantile(latencies(openAll, nil), 0.99), "ms"}
	res.Extra["failed_ratio"] = Metric{float64(res.Failed) / math.Max(1, float64(res.Attempted)), "ratio"}
	for op := Op(0); op < opWrite; op++ {
		l := latencies(openAll, func(s *Sample) bool { return s.Req.Op == op })
		if len(l) > 0 {
			res.Extra[op.String()+"_p50_ms"] = Metric{quantile(l, 0.5), "ms"}
		}
	}
	// Publishes happen in the first warm-up cycle only (see writesPerWindow).
	if l := latencies(writes, func(s *Sample) bool { return s.Req.Op == opPublish }); len(l) > 0 {
		res.Extra["publish_p50_ms"] = Metric{quantile(l, 0.5), "ms"}
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
	}
	return res, nil
}

// tally counts the requests sent and the requests that failed: a
// transport error, a timeout or any non-200 status, shed 503s included.
func tally(phases ...[]Sample) (attempted, failed int) {
	for _, ph := range phases {
		for i := range ph {
			attempted++
			if !ph[i].OK {
				failed++
			}
		}
	}
	return attempted, failed
}
