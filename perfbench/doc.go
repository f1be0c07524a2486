// Command perfbench is the repository's benchmark: HTTP end to end
// through the shipping serving stack, over three traffic mixes, with a
// separate traced run that splits the time by layer.
//
// Run it from the repository root, where it reads each workload's
// open-loop rate from BENCHMARK.json:
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all      # every workload; exit 1 on any wrong answer
//
// run.sh builds the program into .bench_build (Go build cache included)
// and runs it with the same arguments. The last line of the output is a
// JSON object {correct, attempted, failed, metrics}; the lines before it
// print the run's metadata and every metric by name with its unit.
//
// # System under test
//
// One process, over loopback HTTP, with the handlers and defaults the
// shipping commands use: server.New over soi.Engine with soiserve's
// queue depth, queue wait, timeout and result cache; for scatter,
// server.NewRemoteServer over shard.RemoteCoordinator and remote.Client
// against remote.NewServer shards partitioned as soibuild -shards
// partitions them (slab-backed) and served with soishard's defaults; for
// live, a live engine taking POST /api/pois. The city is the Berlin
// profile at 5% volume; --seed draws the requests, never the city.
//
// # Workloads
//
//   - routes: 70% routes/topk, 20% trajectories/soi, 10% tours, each
//     dealt from its pool in shuffled rounds. Route pairs are spread
//     over the city up to 12 mean segment lengths apart, with
//     soibench's k = 3 and 1.2× budget and α > 0 on every second draw.
//     The pool fills search-cost buckets in proportion to a recorded
//     census of that sampler, so every seed has its cost profile;
//     searches past 30k expansions are dropped (see routeGenExpansions).
//     The result cache plays no part.
//   - scatter: the k-SOI stream below, GET /api/streets only, through
//     the coordinator over 4 shards.
//   - live: the k-SOI read stream on a live engine beside a writer
//     posting 4 25-POI batches per window. Two of them, in the first
//     warm-up cycle, are published inline: each rebuilds the index epoch
//     and invalidates the result cache; the measured windows only append.
//     Publish latency is timed in the traced run. Written POIs carry a
//     keyword no read uses, so read answers stay fixed.
//
// The k-SOI read stream is 80% GET /api/streets drawn Zipf-skewed from
// keyword subsets (1–3 of the 8 dataset keywords) × k ∈ {1,5,10,20,50}
// × 3 warmed ε, 10% batches of 8 such queries and 10% describes of
// photo-bearing streets from the answers. The 1380 distinct queries
// exceed the 1024-entry result cache, so it both hits and evicts. It
// loads core, the engine executor and cache, diversify and the server
// codec; on live it does so beside the ingest layer, so live is also
// the single-process control for scatter.
//
// Each workload's open-loop rate is part of its "why" in BENCHMARK.json.
//
// # Load shape
//
// The box has 2 CPUs, so the load comes from this process over at most
// 2 connections (the live writer has one more). A run alternates 2 s
// cycles: 40% closed loop (2 clients, each waiting for its reply), then
// an open loop at the workload's fixed rate, each request timed from its
// due time (the generator sleeps in nanosleep, so it is not a
// millisecond late on every request), then a 0.3 s calibration window.
// Three unmeasured warm-up cycles come first, so live has settled after
// its publishes. A failed request (non-200, transport error, timeout,
// shed 503) counts in "failed" and as a latency miss: a percentile that
// lands on one reports the 10 s request timeout.
//
// The host's speed drifts by a third and more within minutes, so the
// timed end-to-end metrics are calibrated: each run also times a fixed,
// standard-library-only loopback HTTP load (calib.go) between its
// windows and scales its timings to a host on which that load runs at
// 16000 requests per second. throughput_rps is the median over closed
// windows of the requests completed per second, each window divided by
// the host speed of the calibration windows around it; p50_ms is the
// median over open windows of the window's median latency, each
// multiplied by that speed. setup_s is the median of 5 builds from the
// generated corpora to ready-to-serve (index or shard builds, ε warm-up,
// and every lazy structure the workload touches, built by one fixed,
// seed-independent request of each kind), scaled by the calibration
// windows before and after the builds. heap_mb is the live heap of the
// corpora plus what the last build added, after forced collections. The
// report also prints, ungated, the raw (uncalibrated) throughput, p50
// and setup time, the calibration rate, the p99 of all open-loop
// requests, each operation's p50 and failed_ratio.
//
// # Correctness
//
// Before timing, every distinct request is sent over HTTP and compared
// Float64bits-exact with a reference computed by calling core (slab
// SOI), traj, route and diversify directly. During the timed phases each
// response body is hashed and, after the window, must equal the body the
// gate accepted. For live, every write and publish response is checked
// and the writer keyword's answer must equal a reference index over the
// base corpus plus every published POI.
//
// # Traced run
//
// --trace 1 runs the same load with the program's own recorders read
// before and after (cache, dedup, queue wait, shed, Algorithm 2
// pruning, remote attempts and hedges, epochs), a counting transport on
// the scatter client, and runtime counters. It then replays a prefix of
// the open-loop stream sequentially on two fresh stacks: A over HTTP, B
// through each layer's public entry point, so both see the same cache
// history; inner layers (core, diversify, traj, route, per-shard
// evaluation, ingest) are called directly. Each layer's self time is its
// time minus its children's. On live the replay sends writes with a
// publish every second write, then publishes on B until 11 publishes
// are timed (ingest.publish_ms). trace.self_sum_ratio checks that the
// layers account for the HTTP time with parts timed apart from it: the
// same request and response bytes through an echo server, the JSON
// encoding of B's answer and B's call, summed over the HTTP times. The
// metadata records whether it lies within the per-request spread of the
// same ratio. No tracing runs inside the program.
package main
