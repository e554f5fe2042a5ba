package difftest

import (
	"reflect"
	"testing"
	"time"

	"hypersolve/internal/core"
	"hypersolve/internal/service"
	"hypersolve/internal/simulator"
)

// sparseJobs are whole solver jobs whose simulations are dominated by idle
// steps and idle slots, where the event engine's skip logic pays off. The
// unbalanced kind is a linear dependency chain (maximally sparse); fib is a
// recursion fan-out whose frames spread thinly over a large latency-heavy
// mesh, the less sparse of the two.
var sparseJobs = []service.JobSpec{
	{Kind: "unbalanced", N: 40, Topology: "torus:16x16", Seed: 7,
		Link: service.LinkSpec{LinkLatency: 200}},
	{Kind: "fib", N: 14, Topology: "torus:24x24", Seed: 7,
		Link: service.LinkSpec{LinkLatency: 400}},
}

// runJob builds spec exactly as the service does and runs it once on the
// given engine. The engine is a simulator-level setting, not a job option:
// the sweep is reached only here, as the reference.
func runJob(tb testing.TB, spec service.JobSpec, engine simulator.Engine) (core.Result, time.Duration) {
	tb.Helper()
	cfg, arg, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Link.Engine = engine
	m, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	res, err := m.Run(arg)
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if !res.OK {
		tb.Fatalf("%s n=%d on %s did not complete", spec.Kind, spec.N, spec.Topology)
	}
	return res, elapsed
}

// TestSparseJobsMatchAcrossEngines lifts the engine equivalence proof from
// raw simulator cases to whole solver jobs: every layer above the
// simulator must return the same Result, Stats included, on either engine.
func TestSparseJobsMatchAcrossEngines(t *testing.T) {
	for _, spec := range sparseJobs {
		sweep, _ := runJob(t, spec, simulator.EngineSweep)
		event, _ := runJob(t, spec, simulator.EngineEvent)
		if !reflect.DeepEqual(sweep, event) {
			t.Errorf("%s n=%d on %s: engines diverge\n sweep: %+v\n event: %+v",
				spec.Kind, spec.N, spec.Topology, sweep.Stats, event.Stats)
		}
	}
}

// BenchmarkSparseEngines times each sparse job under both engines and
// fails below a 2x event/sweep speedup, the event engine's reason to
// exist. Today's margins are far above the floor (two orders of magnitude
// on the chain, over 20x on fib), so a miss is an engine regression, such
// as stepping through idle gaps, not host noise.
func BenchmarkSparseEngines(b *testing.B) {
	for _, spec := range sparseJobs {
		b.Run(spec.Kind, func(b *testing.B) {
			var sweep, event time.Duration
			for i := 0; i < b.N; i++ {
				_, d := runJob(b, spec, simulator.EngineSweep)
				sweep += d
				_, d = runJob(b, spec, simulator.EngineEvent)
				event += d
			}
			speedup := float64(sweep) / float64(event)
			b.ReportMetric(speedup, "speedup")
			if speedup < 2 {
				b.Fatalf("%s n=%d on %s: event engine %.2fx faster than the sweep, want >= 2x",
					spec.Kind, spec.N, spec.Topology, speedup)
			}
		})
	}
}
