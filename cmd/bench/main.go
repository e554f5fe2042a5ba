// Command bench runs the repository's fixed performance suite and writes a
// machine-readable JSON report, giving successive PRs a comparable
// performance trajectory. It measures six things:
//
//   - the raw layer-1 step loop (a message flood on a 32x32 torus), bare
//     and under three observer configurations — subscriber-less progress,
//     telemetry step counting, and the trace annotation hook — each
//     guarding (hard-failing) the zero-added-allocations contract of the
//     per-step hot path via a deterministic testing.AllocsPerRun reading
//     (the timed benchmarks carry ±1 op of ambient noise; see
//     floodAllocsPerRun),
//   - one full five-layer SAT solve (the hot Figure 4 point: uf50-218 on the
//     196-core 2D torus, round-robin mapping),
//   - the sweep engine's wall-clock speedup: the quick Figure 4 sweep run
//     serially and again at -parallel workers, with a bit-identity check,
//   - the solve service's throughput: 100 uf20 jobs pushed through the
//     bounded admission queue (depth 64) into the worker pool, in jobs/sec,
//   - the portfolio racing overhead: a uf20 burst run solo under each
//     headline mapping strategy and again as a portfolio race of all
//     three, recording the race's wall-clock cost relative to the best
//     solo strategy plus the winner distribution,
//   - the job store's transition throughput: submit→start→finish cycles
//     per second on the memory backend, the journaling file backend, and
//     the file backend with per-record fsync,
//   - the replication overhead: how fast a replica store applies a
//     primary's WAL feed, and the wall-clock gap between a primary dying
//     and the first read served through the router via its standby,
//   - the multi-core scaling matrix: the quick sweep and the service
//     throughput burst re-run at GOMAXPROCS 1/2/4/8, each point recording
//     its speedup over the 1-proc baseline and the parallel-scaling
//     efficiency (speedup divided by procs) — the tracked regression
//     surface for scheduler- and lock-contention regressions.
//
// Every report also records the host context the numbers were taken under:
// runtime.NumCPU() and the container's cgroup CPU quota (cpu.max), so a
// report from a 1-core CI container is never compared 1:1 against an
// 8-core workstation without noticing.
//
// It also measures the engine split introduced with the discrete-event
// simulator core: a sparse-workload comparison (unbalanced-tree and
// recursion kinds on latency-heavy meshes) runs each configuration under
// both the sweep and event engines, verifies the results are bit-identical,
// and records the event/sweep speedup.
//
// Usage:
//
//	go run ./cmd/bench                     # writes BENCH_PR10.json
//	go run ./cmd/bench -o BENCH_PR11.json  # next PR's trajectory point
//	go run ./cmd/bench -parallel 4         # explicit sweep parallelism
//	go run ./cmd/bench -matrix-smoke       # CI gate: tiny 1-vs-2-proc matrix only
//	go run ./cmd/bench -sparse-smoke       # CI gate: event-engine speedup + alloc guards
//
// -matrix-smoke runs a reduced matrix (procs 1 and 2, small workload),
// prints it, and exits non-zero if the 2-proc sweep speedup falls below
// 1.0x on a machine with at least two CPUs — a sanity floor, not a
// scaling target. -sparse-smoke runs a reduced sparse-workload comparison
// plus the flood alloc guards, and exits non-zero if any sparse point's
// event/sweep speedup falls below 2x, if the engines' results diverge, or
// if an observer configuration adds allocations to the hot path. Compare
// full reports by diffing their "benchmarks" entries (ns_per_op,
// allocs_per_op), the sweep block's "speedup", the sparse block's
// "speedup" column and the matrix's "sweep_efficiency" column.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/experiments"
	"hypersolve/internal/mesh"
	"hypersolve/internal/sat"
	"hypersolve/internal/service"
	"hypersolve/internal/simulator"
	"hypersolve/internal/store"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"

	hypersolve "hypersolve"
)

type benchEntry struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type sweepEntry struct {
	Points         int     `json:"points"`
	ProblemsPerPt  int     `json:"problems_per_point"`
	Parallelism    int     `json:"parallelism"`
	SerialSeconds  float64 `json:"serial_seconds"`
	ParallelSecond float64 `json:"parallel_seconds"`
	Speedup        float64 `json:"speedup"`
	BitIdentical   bool    `json:"bit_identical"`
}

type serviceEntry struct {
	Jobs       int     `json:"jobs"`
	QueueDepth int     `json:"queue_depth"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// portfolioEntry measures what portfolio racing costs: the same uf20 burst
// run solo under each strategy and once as a race of all of them. Overhead
// is race wall-clock divided by the best solo strategy's — the price paid
// for not having to know the best strategy in advance.
type portfolioEntry struct {
	Jobs            int                `json:"jobs"`
	Workers         int                `json:"workers"`
	Strategies      []string           `json:"strategies"`
	SoloSeconds     map[string]float64 `json:"solo_seconds"`
	BestSolo        string             `json:"best_solo"`
	BestSoloSeconds float64            `json:"best_solo_seconds"`
	RaceSeconds     float64            `json:"race_seconds"`
	Overhead        float64            `json:"overhead"`
	// Wins is the winner distribution over the race burst's jobs.
	Wins map[string]int `json:"wins"`
}

// storeEntry is the job-store transition throughput for one backend: ops
// are full submit→start→finish cycles (three journal records on the file
// backends).
type storeEntry struct {
	Backend   string  `json:"backend"`
	Ops       int     `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// replicationEntry measures the WAL-shipping overhead added in the
// replicated-fleet work: how fast a replica store applies a primary's
// journal feed, and how long a cluster read takes to fail over to the
// standby once the primary drops off the network.
type replicationEntry struct {
	TailRecords       int     `json:"tail_records"`
	TailSeconds       float64 `json:"tail_seconds"`
	TailRecordsPerSec float64 `json:"tail_records_per_sec"`
	// FailoverFirstReadMs is the wall-clock gap between the primary's
	// listener dying and the first successful read served via the standby.
	FailoverFirstReadMs float64 `json:"failover_first_read_ms"`
}

// matrixPoint is one GOMAXPROCS setting's row in the scaling matrix.
// Speedups are relative to the matrix's own 1-proc row (the matrix uses a
// smaller workload than the headline sweep/service entries, so its
// absolute times are not comparable to theirs — only its scaling is).
type matrixPoint struct {
	Procs             int     `json:"procs"`
	SweepSeconds      float64 `json:"sweep_seconds"`
	SweepSpeedup      float64 `json:"sweep_speedup"`
	SweepEfficiency   float64 `json:"sweep_efficiency"`
	ServiceSeconds    float64 `json:"service_seconds"`
	ServiceJobsPerSec float64 `json:"service_jobs_per_sec"`
	ServiceSpeedup    float64 `json:"service_speedup"`
	ServiceEfficiency float64 `json:"service_efficiency"`
}

// sparsePoint is one sparse-workload configuration run under both engines.
// NsPerOp values are best-of-N wall-clock nanoseconds for one full solve;
// Speedup is sweep/event (>1 means the event engine is faster).
type sparsePoint struct {
	Workload     string  `json:"workload"`
	N            int     `json:"n"`
	Topology     string  `json:"topology"`
	LinkLatency  int64   `json:"link_latency"`
	Steps        int64   `json:"steps"`
	SweepNsPerOp float64 `json:"sweep_ns_per_op"`
	EventNsPerOp float64 `json:"event_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"bit_identical"`
}

type report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"num_cpu"`
	// CPUQuota is the container's cgroup v2 cpu.max line ("max 100000"
	// means unthrottled); empty when no cgroup quota file is readable.
	CPUQuota    string           `json:"cpu_quota,omitempty"`
	Benchmarks  []benchEntry     `json:"benchmarks"`
	Sparse      []sparsePoint    `json:"sparse"`
	Sweep       sweepEntry       `json:"sweep"`
	Service     serviceEntry     `json:"service"`
	Portfolio   portfolioEntry   `json:"portfolio"`
	Store       []storeEntry     `json:"store"`
	Replication replicationEntry `json:"replication"`
	Matrix      []matrixPoint    `json:"matrix"`
}

// cpuQuota reads the container's cgroup v2 CPU limit; "" when not in a
// cgroup (or on cgroup v1 hosts, where the numbers live elsewhere).
func cpuQuota() string {
	data, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

func main() {
	var (
		out   = flag.String("o", "BENCH_PR10.json", "output file")
		par   = flag.Int("parallel", 0, "sweep parallelism for the speedup measurement (0 = GOMAXPROCS)")
		smoke = flag.Bool("matrix-smoke", false,
			"run only a reduced 1-vs-2-proc scaling matrix and fail if 2-proc sweep speedup < 1.0x (skipped on 1-CPU hosts)")
		sparseSmoke = flag.Bool("sparse-smoke", false,
			"run only a reduced sparse-workload engine comparison plus the flood alloc guards; fail below 2x event/sweep speedup")
	)
	flag.Parse()
	if *smoke {
		if err := runMatrixSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *sparseSmoke {
		if err := runSparseSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		CPUQuota:   cpuQuota(),
	}

	fmt.Fprintln(os.Stderr, "bench: layer-1 flood (32x32 torus)...")
	base := runBench("sim_flood_torus32x32", benchFlood)
	rep.Benchmarks = append(rep.Benchmarks, base)
	fmt.Fprintln(os.Stderr, "bench: layer-1 flood with progress observer, no subscribers...")
	observed := runBench("sim_flood_torus32x32_observed", benchFloodObserved)
	rep.Benchmarks = append(rep.Benchmarks, observed)
	fmt.Fprintln(os.Stderr, "bench: layer-1 flood with telemetry-counting observer...")
	counted := runBench("sim_flood_torus32x32_observed_telemetry", benchFloodObservedTelemetry)
	rep.Benchmarks = append(rep.Benchmarks, counted)
	fmt.Fprintln(os.Stderr, "bench: layer-1 flood with tracing-enabled observer...")
	traced := runBench("sim_flood_torus32x32_observed_traced", benchFloodObservedTraced)
	rep.Benchmarks = append(rep.Benchmarks, traced)
	// Guard the streaming-progress contract: an attached observer with no
	// subscribers must add zero allocations to the layer-1 hot path — and
	// the telemetry step counter and trace annotation hook, riding the
	// same publish cadence, must keep it that way. The guards read
	// testing.AllocsPerRun (deterministic, integer-floored — see
	// floodAllocsPerRun) rather than the noisy testing.Benchmark numbers
	// above, which stay in the report for their timings.
	fmt.Fprintln(os.Stderr, "bench: flood alloc guards (AllocsPerRun, 4 configurations)...")
	if err := floodAllocGuards(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench: sparse workloads (unbalanced + recursion, sweep vs event engine)...")
	sparse, err := benchSparse(fullSparseSpecs, 3)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Sparse = sparse
	fmt.Fprintln(os.Stderr, "bench: figure-4 point (uf50-218, 196-core 2D torus, RR)...")
	rep.Benchmarks = append(rep.Benchmarks, runBench("figure4_point_2dtorus_rr_196", benchFigure4Point))
	fmt.Fprintln(os.Stderr, "bench: sweep speedup (quick figure-4, serial vs parallel)...")
	sweep, err := benchSweep(*par)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Sweep = sweep
	fmt.Fprintln(os.Stderr, "bench: service throughput (uf20 jobs through the queue at depth 64)...")
	svcEntry, err := benchService(*par, 100)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Service = svcEntry
	fmt.Fprintln(os.Stderr, "bench: portfolio racing overhead (uf20 burst, race vs solo best)...")
	rep.Portfolio, err = benchPortfolio(*par, 40)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench: job-store transition throughput (memory vs file vs file+fsync)...")
	rep.Store, err = benchStore()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench: replication (journal-tail apply throughput, failover read latency)...")
	rep.Replication, err = benchReplication()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench: scaling matrix (sweep + service at GOMAXPROCS 1/2/4/8)...")
	rep.Matrix, err = runMatrix([]int{1, 2, 4, 8}, matrixLoad{sweepProblems: 3, serviceJobs: 40})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (sparse event speedup >= %.1fx, sweep speedup %.2fx at parallelism %d, service %.1f jobs/s, portfolio overhead %.2fx vs solo %s, store %.0f/%.0f/%.0f ops/s mem/file/fsync, replica tail %.0f rec/s, failover read %.1fms, sweep efficiency@2 %.2f)\n",
		*out, minSpeedup(rep.Sparse), sweep.Speedup, sweep.Parallelism, svcEntry.JobsPerSec,
		rep.Portfolio.Overhead, rep.Portfolio.BestSolo,
		rep.Store[0].OpsPerSec, rep.Store[1].OpsPerSec, rep.Store[2].OpsPerSec,
		rep.Replication.TailRecordsPerSec, rep.Replication.FailoverFirstReadMs,
		rep.Matrix[1].SweepEfficiency)
	fmt.Print(string(data))
}

// floodAllocsPerRun measures one flood run's allocations under the given
// observer with testing.AllocsPerRun: single goroutine, GOMAXPROCS(1),
// integer-floored average over a fixed run count. The zero-added-
// allocations guards compare these readings rather than the
// testing.Benchmark numbers because the latter carry ±1 op of ambient
// per-second noise (framework and runtime allocations divided by an
// elapsed-time-dependent N), which is enough to tip an exact-equality
// guard. Here any sub-run cost — including the handful of allocations the
// telemetry and tracing hooks make on the wall-clock publish cadence —
// floors away, while a real hot-path regression (≥1 allocation per step,
// so thousands per run) is far above the floor.
func floodAllocsPerRun(obs simulator.Observer) int64 {
	topo := mesh.MustTorus(32, 32)
	return int64(testing.AllocsPerRun(100, func() {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
			Observer: obs,
		})
		if err != nil {
			panic(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			panic(err)
		}
		if !sim.Run().Quiescent {
			panic("bench: flood did not quiesce")
		}
	}))
}

// floodAllocGuards runs the four AllocsPerRun readings and enforces the
// zero-added-allocations contract of the observer configurations. It runs
// on the default (event) engine, the path every serviced job now takes.
func floodAllocGuards() error {
	baseAllocs := floodAllocsPerRun(nil)
	observedAllocs := floodAllocsPerRun(service.NewProgressBroker().Observer(service.ObserverHooks{}))
	countedAllocs := floodAllocsPerRun(service.NewProgressBroker().
		CountSteps(telemetry.NewRegistry().Counter("bench_sim_steps_total", "bench-only step counter")).
		Observer(service.ObserverHooks{}))
	guardTrace := tracelog.NewTrace(tracelog.TraceContext{})
	guardSpan := guardTrace.StartSpan("run")
	tracedAllocs := floodAllocsPerRun(service.NewProgressBroker().
		CountSteps(telemetry.NewRegistry().Counter("bench_sim_steps_total", "bench-only step counter")).
		Observer(service.ObserverHooks{Annotate: func(step int64, queued int) {
			guardTrace.Annotate(guardSpan, fmt.Sprintf("step %d, %d queued", step, queued))
		}}))
	guardTrace.EndSpan(guardSpan)
	if observedAllocs > baseAllocs {
		return fmt.Errorf("progress observer added allocations to the hot path (%d -> %d allocs/run)",
			baseAllocs, observedAllocs)
	}
	if countedAllocs > baseAllocs {
		return fmt.Errorf("telemetry step counter added allocations to the hot path (%d -> %d allocs/run)",
			baseAllocs, countedAllocs)
	}
	if tracedAllocs > baseAllocs {
		return fmt.Errorf("trace annotation hook added allocations to the hot path (%d -> %d allocs/run)",
			baseAllocs, tracedAllocs)
	}
	fmt.Fprintf(os.Stderr, "bench: flood alloc guards held (base=%d observed=%d telemetry=%d traced=%d allocs/run)\n",
		baseAllocs, observedAllocs, countedAllocs, tracedAllocs)
	return nil
}

// sparseSpec is one sparse-workload configuration for the engine
// comparison: a solve whose simulation is dominated by idle steps and idle
// slots, where the event engine's skip logic should pay off. The unbalanced
// kind is a linear dependency chain (maximally sparse); fib is a recursion
// fan-out whose frames spread thinly across a large latency-heavy mesh.
type sparseSpec struct {
	kind     string
	n        int
	topology string
	latency  int64
}

var fullSparseSpecs = []sparseSpec{
	{kind: "unbalanced", n: 40, topology: "torus:16x16", latency: 200},
	{kind: "unbalanced", n: 60, topology: "torus:16x16", latency: 50},
	{kind: "fib", n: 14, topology: "torus:24x24", latency: 400},
	{kind: "fib", n: 16, topology: "torus:20x20", latency: 300},
}

// smokeSparseSpecs is the reduced CI-gate set: one point per workload kind,
// both comfortably above the 2x floor on any host.
var smokeSparseSpecs = []sparseSpec{
	{kind: "unbalanced", n: 40, topology: "torus:16x16", latency: 200},
	{kind: "fib", n: 14, topology: "torus:24x24", latency: 400},
}

// benchSparse times each spec under both engines (best of iters runs each)
// and cross-checks that the two produce bit-identical results.
func benchSparse(specs []sparseSpec, iters int) ([]sparsePoint, error) {
	timeRun := func(s sparseSpec, engine simulator.Engine) (float64, hypersolve.Result, error) {
		spec := service.JobSpec{
			Kind:     s.kind,
			N:        s.n,
			Topology: s.topology,
			Seed:     7,
			Link:     service.LinkSpec{LinkLatency: s.latency},
		}
		cfg, arg, err := spec.Build()
		if err != nil {
			return 0, hypersolve.Result{}, err
		}
		// The engine is a simulator-level setting, not a job option: the
		// sweep is reached only as the differential reference.
		cfg.Link.Engine = engine
		best := 0.0
		var res hypersolve.Result
		for i := 0; i < iters; i++ {
			m, err := hypersolve.NewMachine(cfg)
			if err != nil {
				return 0, hypersolve.Result{}, err
			}
			start := time.Now()
			res, err = m.Run(arg)
			if err != nil {
				return 0, hypersolve.Result{}, err
			}
			if !res.OK {
				return 0, hypersolve.Result{}, fmt.Errorf("sparse %s/%d did not complete", s.kind, s.n)
			}
			if ns := float64(time.Since(start).Nanoseconds()); best == 0 || ns < best {
				best = ns
			}
		}
		return best, res, nil
	}
	out := make([]sparsePoint, 0, len(specs))
	for _, s := range specs {
		sweepNs, sweepRes, err := timeRun(s, simulator.EngineSweep)
		if err != nil {
			return nil, err
		}
		eventNs, eventRes, err := timeRun(s, simulator.EngineEvent)
		if err != nil {
			return nil, err
		}
		pt := sparsePoint{
			Workload:     s.kind,
			N:            s.n,
			Topology:     s.topology,
			LinkLatency:  s.latency,
			Steps:        eventRes.Stats.Steps,
			SweepNsPerOp: sweepNs,
			EventNsPerOp: eventNs,
			Speedup:      sweepNs / eventNs,
			BitIdentical: reflect.DeepEqual(sweepRes, eventRes),
		}
		if !pt.BitIdentical {
			return nil, fmt.Errorf("sparse %s/%d on %s: engines diverge (sweep %+v, event %+v)",
				s.kind, s.n, s.topology, sweepRes.Stats, eventRes.Stats)
		}
		fmt.Fprintf(os.Stderr, "bench:   %s n=%d %s lat=%d: sweep %.1fms event %.1fms speedup %.1fx\n",
			pt.Workload, pt.N, pt.Topology, pt.LinkLatency,
			pt.SweepNsPerOp/1e6, pt.EventNsPerOp/1e6, pt.Speedup)
		out = append(out, pt)
	}
	return out, nil
}

// runSparseSmoke is the CI gate for the event engine: the reduced sparse
// set must show at least a 2x event/sweep speedup per point (the engine's
// reason to exist on sparse shapes), results must be bit-identical, and the
// flood alloc guards must still hold on the event path.
func runSparseSmoke() error {
	fmt.Fprintln(os.Stderr, "bench: sparse smoke (unbalanced + recursion, sweep vs event)...")
	pts, err := benchSparse(smokeSparseSpecs, 2)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(pts, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	for _, pt := range pts {
		if pt.Speedup < 2.0 {
			return fmt.Errorf("sparse smoke: %s n=%d speedup %.2fx is below the 2x floor",
				pt.Workload, pt.N, pt.Speedup)
		}
	}
	fmt.Fprintln(os.Stderr, "bench: sparse smoke: flood alloc guards (AllocsPerRun, 4 configurations)...")
	if err := floodAllocGuards(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: sparse smoke ok (min speedup %.1fx)\n", minSpeedup(pts))
	return nil
}

func minSpeedup(pts []sparsePoint) float64 {
	min := pts[0].Speedup
	for _, pt := range pts[1:] {
		if pt.Speedup < min {
			min = pt.Speedup
		}
	}
	return min
}

func runBench(name string, fn func(b *testing.B)) benchEntry {
	r := testing.Benchmark(fn)
	e := benchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		e.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			e.Metrics[k] = v
		}
	}
	return e
}

// floodHandler rebroadcasts the first message it receives to every
// neighbour: a full-mesh flood that exercises the raw step loop with zero
// application work.
type floodHandler struct{ seen bool }

func (h *floodHandler) Init(*simulator.Context) {}

func (h *floodHandler) Receive(ctx *simulator.Context, _ mesh.NodeID, _ simulator.Payload) {
	if h.seen {
		return
	}
	h.seen = true
	for _, nb := range ctx.Neighbours() {
		if err := ctx.Send(nb, nil); err != nil {
			panic(err)
		}
	}
}

func benchFlood(b *testing.B) {
	topo := mesh.MustTorus(32, 32)
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			b.Fatal(err)
		}
		stats := sim.Run()
		if !stats.Quiescent {
			b.Fatal("flood did not quiesce")
		}
		steps = stats.Steps
	}
	b.ReportMetric(float64(steps), "steps")
}

// benchFloodObserved is benchFlood with a progress observer attached and no
// subscriber — the configuration every serviced job now runs under when
// nobody is watching. The broker and observer are built once, outside the
// measured iterations, so allocs/op isolates the per-step cost, which must
// be zero.
func benchFloodObserved(b *testing.B) {
	topo := mesh.MustTorus(32, 32)
	obs := service.NewProgressBroker().Observer(service.ObserverHooks{})
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
			Observer: obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			b.Fatal(err)
		}
		stats := sim.Run()
		if !stats.Quiescent {
			b.Fatal("flood did not quiesce")
		}
		steps = stats.Steps
	}
	b.ReportMetric(float64(steps), "steps")
}

// benchFloodObservedTelemetry is benchFloodObserved with a telemetry step
// counter attached to the broker — the exact configuration a serviced job
// runs under now that the fleet counts steps. The counter is fed on the
// observer's publish cadence only, so it must leave allocs/op untouched.
func benchFloodObservedTelemetry(b *testing.B) {
	topo := mesh.MustTorus(32, 32)
	steps := telemetry.NewRegistry().Counter("bench_sim_steps_total", "bench-only step counter")
	obs := service.NewProgressBroker().CountSteps(steps).Observer(service.ObserverHooks{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
			Observer: obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			b.Fatal(err)
		}
		stats := sim.Run()
		if !stats.Quiescent {
			b.Fatal("flood did not quiesce")
		}
	}
	b.ReportMetric(float64(steps.Value()), "steps_counted")
}

// benchFloodObservedTraced is benchFloodObservedTelemetry plus the trace
// annotation hook — the full configuration a serviced job runs under with
// tracing enabled. Annotations are recorded only on the observer's
// throttled publish cadence, so the per-step hot path must still show
// zero added allocations over the bare flood.
func benchFloodObservedTraced(b *testing.B) {
	topo := mesh.MustTorus(32, 32)
	steps := telemetry.NewRegistry().Counter("bench_sim_steps_total", "bench-only step counter")
	tr := tracelog.NewTrace(tracelog.TraceContext{})
	span := tr.StartSpan("run")
	obs := service.NewProgressBroker().CountSteps(steps).
		Observer(service.ObserverHooks{Annotate: func(step int64, queued int) {
			tr.Annotate(span, fmt.Sprintf("step %d, %d queued", step, queued))
		}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &floodHandler{} },
			Observer: obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			b.Fatal(err)
		}
		stats := sim.Run()
		if !stats.Quiescent {
			b.Fatal("flood did not quiesce")
		}
	}
	tr.EndSpan(span)
}

func benchFigure4Point(b *testing.B) {
	// The scalability workload family (uf50-218, one instance); the same
	// generator parameters as experiments.DefaultWorkload and the root
	// BenchmarkFigure4.
	suite, err := hypersolve.GenerateSATSuite(sat.SuiteParams{
		Count: 1, NumVars: 50, NumClauses: 218, Seed: 11, RequireSAT: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := suite[0]
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := hypersolve.Run(hypersolve.Config{
			Topology: hypersolve.MustTorus(14, 14),
			Mapper:   hypersolve.RoundRobinMapper(),
			Task:     hypersolve.SATTask(hypersolve.HeuristicFirst),
			Seed:     int64(i),
		}, hypersolve.NewSATProblem(f))
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("solve did not complete")
		}
		steps = res.ComputationTime
	}
	b.ReportMetric(float64(steps), "steps")
}

func benchSweep(par int) (sweepEntry, error) {
	w, err := experiments.SmallWorkload(1, 5)
	if err != nil {
		return sweepEntry{}, err
	}
	mkCfg := func(parallelism int) experiments.Figure4Config {
		return experiments.Figure4Config{
			Workload: w,
			Series: experiments.DefaultFigure4Series(
				[]int{16, 64, 196},
				[]int{27, 125},
				[]int{16, 196},
			),
			Seed:        1,
			Parallelism: parallelism,
		}
	}
	start := time.Now()
	serialPts, err := experiments.Figure4(mkCfg(1))
	if err != nil {
		return sweepEntry{}, err
	}
	serialDur := time.Since(start)

	start = time.Now()
	parPts, err := experiments.Figure4(mkCfg(par))
	if err != nil {
		return sweepEntry{}, err
	}
	parDur := time.Since(start)

	return sweepEntry{
		Points:         len(serialPts),
		ProblemsPerPt:  len(w.Problems),
		Parallelism:    par,
		SerialSeconds:  serialDur.Seconds(),
		ParallelSecond: parDur.Seconds(),
		Speedup:        serialDur.Seconds() / parDur.Seconds(),
		BitIdentical:   reflect.DeepEqual(serialPts, parPts),
	}, nil
}

// matrixLoad sizes one scaling-matrix cell: the sweep's problem count per
// point and the service burst's job count. The full report uses a medium
// load; -matrix-smoke a minimal one.
type matrixLoad struct {
	sweepProblems int
	serviceJobs   int
}

// sweepOnce runs a reduced figure-4 sweep at the given engine parallelism
// and returns its wall-clock seconds — the matrix's unit of work.
func sweepOnce(problems, parallelism int) (float64, error) {
	w, err := experiments.SmallWorkload(1, problems)
	if err != nil {
		return 0, err
	}
	cfg := experiments.Figure4Config{
		Workload:    w,
		Series:      experiments.DefaultFigure4Series([]int{16, 64}, []int{27}, []int{16}),
		Seed:        1,
		Parallelism: parallelism,
	}
	start := time.Now()
	if _, err := experiments.Figure4(cfg); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runMatrix measures the sweep engine and the service burst at each
// GOMAXPROCS setting, then normalises every row against the 1-proc row:
// speedup = t1/tN, efficiency = speedup/procs. GOMAXPROCS is restored on
// return. The engine/pool parallelism knobs track the procs value, so each
// row measures the whole stack (runtime scheduler included) at that width.
func runMatrix(procs []int, load matrixLoad) ([]matrixPoint, error) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	out := make([]matrixPoint, 0, len(procs))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		sweepSec, err := sweepOnce(load.sweepProblems, p)
		if err != nil {
			return nil, err
		}
		svc, err := benchService(p, load.serviceJobs)
		if err != nil {
			return nil, err
		}
		out = append(out, matrixPoint{
			Procs:             p,
			SweepSeconds:      sweepSec,
			ServiceSeconds:    svc.Seconds,
			ServiceJobsPerSec: svc.JobsPerSec,
		})
	}
	base := out[0]
	for i := range out {
		pt := &out[i]
		pt.SweepSpeedup = base.SweepSeconds / pt.SweepSeconds
		pt.SweepEfficiency = pt.SweepSpeedup / float64(pt.Procs)
		pt.ServiceSpeedup = base.ServiceSeconds / pt.ServiceSeconds
		pt.ServiceEfficiency = pt.ServiceSpeedup / float64(pt.Procs)
		fmt.Fprintf(os.Stderr, "bench:   procs=%d sweep %.2fs (%.2fx, eff %.2f) service %.1f jobs/s (%.2fx, eff %.2f)\n",
			pt.Procs, pt.SweepSeconds, pt.SweepSpeedup, pt.SweepEfficiency,
			pt.ServiceJobsPerSec, pt.ServiceSpeedup, pt.ServiceEfficiency)
	}
	return out, nil
}

// runMatrixSmoke is the CI gate: a minimal 1-vs-2-proc matrix whose only
// assertion is that two procs are not slower than one. Anything below 1.0x
// on a multi-core host means parallelism went actively negative — a lock
// or scheduler regression, not noise. Single-CPU hosts skip the check
// (there is no second core to scale onto) but still print the matrix.
func runMatrixSmoke() error {
	fmt.Fprintln(os.Stderr, "bench: matrix smoke (procs 1 vs 2, reduced load)...")
	pts, err := runMatrix([]int{1, 2}, matrixLoad{sweepProblems: 2, serviceJobs: 12})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(pts, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: matrix smoke: single-CPU host, scaling floor check skipped")
		return nil
	}
	if sp := pts[1].SweepSpeedup; sp < 1.0 {
		return fmt.Errorf("matrix smoke: 2-proc sweep speedup %.2fx is below the 1.0x sanity floor", sp)
	}
	fmt.Fprintf(os.Stderr, "bench: matrix smoke ok (2-proc sweep speedup %.2fx)\n", pts[1].SweepSpeedup)
	return nil
}

// benchService measures the solve service's end-to-end throughput: a burst
// of uf20 SAT jobs pushed through the bounded admission queue (depth 64) and
// a worker pool, counting jobs per second from first submit to last
// completion. Submissions bounced by a full queue are retried, so the
// figure includes admission backpressure, store bookkeeping and result
// serialisation overhead, not just solve time.
func benchService(workers, jobs int) (serviceEntry, error) {
	const depth = 64
	suite, err := hypersolve.GenerateSATSuite(sat.UF20Params(23))
	if err != nil {
		return serviceEntry{}, err
	}
	specs := make([]hypersolve.JobSpec, jobs)
	for i := range specs {
		var cnf strings.Builder
		if err := sat.WriteDIMACS(&cnf, suite[i%len(suite)]); err != nil {
			return serviceEntry{}, err
		}
		specs[i] = hypersolve.JobSpec{
			Kind:     "sat",
			CNF:      cnf.String(),
			Topology: "torus:8x8",
			Mapper:   "lbn",
			Seed:     int64(i),
		}
	}

	svc := hypersolve.NewSolveService(hypersolve.SolveServiceConfig{QueueDepth: depth, Workers: workers})
	defer svc.Close()
	start := time.Now()
	ids := make([]int64, 0, jobs)
	for _, spec := range specs {
		for {
			job, err := svc.Submit(spec)
			if err == nil {
				ids = append(ids, job.ID.Seq)
				break
			}
			if !errors.Is(err, service.ErrQueueFull) {
				return serviceEntry{}, err
			}
			time.Sleep(200 * time.Microsecond) // backpressure: retry
		}
	}
	for _, id := range ids {
		for {
			j, ok := svc.Get(id)
			if !ok {
				return serviceEntry{}, fmt.Errorf("bench: job %d vanished", id)
			}
			if j.State.Terminal() {
				if j.State != service.StateDone {
					return serviceEntry{}, fmt.Errorf("bench: job %d ended %s: %s", id, j.State, j.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	return serviceEntry{
		Jobs:       jobs,
		QueueDepth: depth,
		Workers:    workers,
		Seconds:    elapsed.Seconds(),
		JobsPerSec: float64(jobs) / elapsed.Seconds(),
	}, nil
}

// benchPortfolio measures the cost of portfolio racing on a uf20 burst:
// the burst runs solo under each headline strategy, then once more racing
// all of them per job. The race burns up to len(strategies) workers per
// job, so its wall clock is expected to sit above the best solo strategy's
// — Overhead records by how much, Wins which strategies actually won.
func benchPortfolio(workers, jobs int) (portfolioEntry, error) {
	strategies := []string{"rr", "lbn", "weighted"}
	const depth = 64
	suite, err := hypersolve.GenerateSATSuite(sat.UF20Params(29))
	if err != nil {
		return portfolioEntry{}, err
	}
	mkSpecs := func(mapper string, portfolio []string) ([]hypersolve.JobSpec, error) {
		specs := make([]hypersolve.JobSpec, jobs)
		for i := range specs {
			var cnf strings.Builder
			if err := sat.WriteDIMACS(&cnf, suite[i%len(suite)]); err != nil {
				return nil, err
			}
			specs[i] = hypersolve.JobSpec{
				Kind:      "sat",
				CNF:       cnf.String(),
				Topology:  "torus:8x8",
				Mapper:    mapper,
				Portfolio: portfolio,
				Seed:      int64(i),
			}
		}
		return specs, nil
	}
	// runBurst pushes the burst through a fresh service and returns its
	// wall-clock seconds plus the winner distribution (empty for solo runs).
	runBurst := func(specs []hypersolve.JobSpec) (float64, map[string]int, error) {
		svc := hypersolve.NewSolveService(hypersolve.SolveServiceConfig{QueueDepth: depth, Workers: workers})
		defer svc.Close()
		start := time.Now()
		ids := make([]int64, 0, len(specs))
		for _, spec := range specs {
			for {
				job, err := svc.Submit(spec)
				if err == nil {
					ids = append(ids, job.ID.Seq)
					break
				}
				if !errors.Is(err, service.ErrQueueFull) {
					return 0, nil, err
				}
				time.Sleep(200 * time.Microsecond) // backpressure: retry
			}
		}
		wins := make(map[string]int)
		for _, id := range ids {
			for {
				j, ok := svc.Get(id)
				if !ok {
					return 0, nil, fmt.Errorf("bench: job %d vanished", id)
				}
				if j.State.Terminal() {
					if j.State != service.StateDone {
						return 0, nil, fmt.Errorf("bench: job %d ended %s: %s", id, j.State, j.Error)
					}
					if j.Winner != "" {
						wins[j.Winner]++
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		return time.Since(start).Seconds(), wins, nil
	}

	e := portfolioEntry{
		Jobs:        jobs,
		Workers:     workers,
		Strategies:  strategies,
		SoloSeconds: make(map[string]float64, len(strategies)),
	}
	for _, strat := range strategies {
		specs, err := mkSpecs(strat, nil)
		if err != nil {
			return e, err
		}
		secs, _, err := runBurst(specs)
		if err != nil {
			return e, err
		}
		e.SoloSeconds[strat] = secs
		if e.BestSolo == "" || secs < e.BestSoloSeconds {
			e.BestSolo, e.BestSoloSeconds = strat, secs
		}
		fmt.Fprintf(os.Stderr, "bench:   solo %-10s %.2fs\n", strat, secs)
	}
	specs, err := mkSpecs("", strategies)
	if err != nil {
		return e, err
	}
	raceSecs, wins, err := runBurst(specs)
	if err != nil {
		return e, err
	}
	e.RaceSeconds = raceSecs
	e.Overhead = raceSecs / e.BestSoloSeconds
	e.Wins = wins
	fmt.Fprintf(os.Stderr, "bench:   race %.2fs (%.2fx vs solo %s), wins %v\n",
		raceSecs, e.Overhead, e.BestSolo, wins)
	return e, nil
}

// benchStore measures raw job-store transition throughput — what the
// durable backend costs relative to the in-memory map, with and without
// per-record fsync. One op is a full submit→start→finish cycle with a
// representative ~200-byte result payload; the fsync backend runs fewer
// ops because each cycle forces three disk syncs.
func benchStore() ([]storeEntry, error) {
	spec, err := json.Marshal(hypersolve.JobSpec{Kind: "sum", N: 20, Topology: "ring:4", Seed: 3})
	if err != nil {
		return nil, err
	}
	result := json.RawMessage(`{"ok":true,"value":210,"computation_time":1201,"performance":0.17,` +
		`"stats":{"steps":1201,"delivered":40,"sent":40,"dropped":0,"retransmits":0,"max_queue":1,"quiescent":true}}`)

	run := func(st store.Store, ops int) (storeEntry, error) {
		defer st.Close()
		start := time.Now()
		for i := 0; i < ops; i++ {
			j, err := st.Submit(spec, time.Now().UTC())
			if err != nil {
				return storeEntry{}, err
			}
			if err := st.Start(j.ID, time.Now().UTC()); err != nil {
				return storeEntry{}, err
			}
			if _, err := st.Finish(j.ID, store.StateDone, time.Now().UTC(), "", result); err != nil {
				return storeEntry{}, err
			}
		}
		elapsed := time.Since(start)
		return storeEntry{Ops: ops, Seconds: elapsed.Seconds(),
			OpsPerSec: float64(ops) / elapsed.Seconds()}, nil
	}

	var out []storeEntry
	e, err := run(store.NewMemory(0), 5000)
	if err != nil {
		return nil, err
	}
	e.Backend = "memory"
	out = append(out, e)

	for _, cfg := range []struct {
		name  string
		fsync bool
		ops   int
	}{
		{"file", false, 5000},
		{"file_fsync", true, 200},
	} {
		dir, err := os.MkdirTemp("", "hypersolve-bench-store")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(store.FileConfig{Dir: dir, Fsync: cfg.fsync})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		e, err := run(st, cfg.ops)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		e.Backend = cfg.name
		out = append(out, e)
	}
	return out, nil
}

// benchReplication measures the WAL-shipping paths added with the
// replicated fleet. Apply throughput is store-level (no HTTP in the way): a
// replica ApplyFeeds a primary's 9000-record journal page by page, which is
// the work a standby's tail loop does per pull. Failover latency is end to
// end: a primary/standby node pair behind a router with aggressive probe
// timings, the primary's listener closed, and the clock stopped at the
// first read the router serves from the standby.
func benchReplication() (replicationEntry, error) {
	var e replicationEntry
	spec, err := json.Marshal(hypersolve.JobSpec{Kind: "sum", N: 20, Topology: "ring:4", Seed: 3})
	if err != nil {
		return e, err
	}
	result := json.RawMessage(`{"ok":true,"value":210}`)

	// Journal-tail apply throughput. SnapshotEvery is raised past the
	// record count so the feed serves records, not a snapshot bootstrap —
	// the steady-state tail path is what a standby runs forever.
	primDir, err := os.MkdirTemp("", "hypersolve-bench-repl-prim")
	if err != nil {
		return e, err
	}
	defer os.RemoveAll(primDir)
	replDir, err := os.MkdirTemp("", "hypersolve-bench-repl-repl")
	if err != nil {
		return e, err
	}
	defer os.RemoveAll(replDir)
	prim, err := store.Open(store.FileConfig{Dir: primDir, SnapshotEvery: 20000})
	if err != nil {
		return e, err
	}
	defer prim.Close()
	const cycles = 3000 // 9000 journal records
	for i := 0; i < cycles; i++ {
		j, err := prim.Submit(spec, time.Now().UTC())
		if err != nil {
			return e, err
		}
		if err := prim.Start(j.ID, time.Now().UTC()); err != nil {
			return e, err
		}
		if _, err := prim.Finish(j.ID, store.StateDone, time.Now().UTC(), "", result); err != nil {
			return e, err
		}
	}
	repl, err := store.Open(store.FileConfig{Dir: replDir, Replica: true, SnapshotEvery: 20000})
	if err != nil {
		return e, err
	}
	defer repl.Close()
	_, srcLSN := prim.ReplicationState()
	start := time.Now()
	for from := int64(1); ; {
		page, err := prim.Feed(from, 0)
		if err != nil {
			return e, err
		}
		res, err := repl.ApplyFeed(page)
		if err != nil {
			return e, err
		}
		e.TailRecords += res.Applied
		if _, lsn := repl.ReplicationState(); lsn >= srcLSN {
			break
		} else {
			from = lsn + 1
		}
	}
	elapsed := time.Since(start)
	e.TailSeconds = elapsed.Seconds()
	e.TailRecordsPerSec = float64(e.TailRecords) / elapsed.Seconds()

	// Failover-to-first-successful-read latency through a live router.
	pdir, err := os.MkdirTemp("", "hypersolve-bench-failover-p")
	if err != nil {
		return e, err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "hypersolve-bench-failover-s")
	if err != nil {
		return e, err
	}
	defer os.RemoveAll(sdir)
	primary, err := service.NewNode(service.NodeConfig{
		Dir:     pdir,
		Service: service.Config{QueueDepth: 16, Workers: 2},
	})
	if err != nil {
		return e, err
	}
	defer primary.Close()
	psrv := httptest.NewServer(primary.Handler())
	standby, err := service.NewNode(service.NodeConfig{
		Dir:       sdir,
		Service:   service.Config{QueueDepth: 16, Workers: 2},
		Follow:    psrv.URL,
		PullEvery: 5 * time.Millisecond,
	})
	if err != nil {
		psrv.Close()
		return e, err
	}
	defer standby.Close()
	ssrv := httptest.NewServer(standby.Handler())
	defer ssrv.Close()
	r, err := cluster.New(cluster.Config{
		Backends:     []string{psrv.URL},
		Standbys:     []string{ssrv.URL},
		ProbeEvery:   25 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		FailAfter:    2,
		PromoteAfter: 50 * time.Millisecond,
	})
	if err != nil {
		psrv.Close()
		return e, err
	}
	defer r.Close()
	rsrv := httptest.NewServer(cluster.NewHandler(r))
	defer rsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &service.Client{Base: rsrv.URL}
	job, err := client.Submit(ctx, hypersolve.JobSpec{Kind: "sum", N: 20, Topology: "ring:4", Seed: 7})
	if err != nil {
		psrv.Close()
		return e, err
	}
	if _, err := client.Wait(ctx, job.ID, 5*time.Millisecond); err != nil {
		psrv.Close()
		return e, err
	}
	sc := &service.Client{Base: ssrv.URL}
	for {
		st, err := sc.ReplicationStatus(ctx)
		if err == nil && st.Lag == 0 && st.LSN > 0 {
			break
		}
		if ctx.Err() != nil {
			psrv.Close()
			return e, fmt.Errorf("standby never caught up: %w", ctx.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}

	psrv.Close() // the primary drops off the network
	t0 := time.Now()
	for {
		if _, err := client.Get(ctx, job.ID); err == nil {
			break
		}
		if ctx.Err() != nil {
			return e, fmt.Errorf("read never failed over: %w", ctx.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.FailoverFirstReadMs = float64(time.Since(t0).Microseconds()) / 1000
	return e, nil
}
