package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hypersolve/internal/experiments"
	"hypersolve/internal/mapping"
	"hypersolve/internal/sched"
)

const (
	// defaultSeed is the workload seed when -seed is not given.
	defaultSeed = 1
	// suiteSeed picks the formulas of figure4-sweep: the suite
	// `figures -fig 4` sweeps by default. The suite is fixed because a
	// sweep's cost varies by about a fifth between suites, more than any
	// bound could absorb.
	suiteSeed = 1
	// figureParallelism is the sweep's worker count.
	figureParallelism = 2
	// figureSetups is how many times a run builds the sweep config;
	// setup_s is their median.
	figureSetups  = 5
	referencePath = "testdata/figure4_reference.json"
)

// reference holds the Figure 4 points of the fixed suite.
//
//go:embed testdata/figure4_reference.json
var reference []byte

// runFigure4 sweeps the paper's Figure 4 through experiments.Figure4,
// back to back until the window has run, and checks every sweep's points
// against the stored reference.
func runFigure4(opt options, updateRef bool) (*report, error) {
	rep := newReport()
	var setups []float64
	var cfg experiments.Figure4Config
	for range figureSetups {
		t0 := time.Now()
		c, err := experiments.DefaultFigure4Config(suiteSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cfg = c
	}
	cfg.Seed = opt.seed
	cfg.Parallelism = figureParallelism
	simsPerSweep := 0
	for _, s := range cfg.Series {
		simsPerSweep += len(s.Sizes) * len(cfg.Workload.Problems)
	}

	var counts *chooseCounts
	var prof *cpuProfile
	if opt.trace {
		counts = countChooses(cfg.Series)
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	rt0 := sampleRuntime()
	var sweeps []float64
	var steps float64
	// Sweep back to back while the next sweep, taking as long as the mean
	// one so far, should end inside the window; always sweep once.
	start := time.Now()
	window := float64(opt.seconds)
	for len(sweeps) == 0 || time.Since(start).Seconds()*float64(len(sweeps)+1)/float64(len(sweeps)) <= window {
		t0 := time.Now()
		points, err := experiments.Figure4(cfg)
		sweeps = append(sweeps, time.Since(t0).Seconds())
		rep.attempted += simsPerSweep
		if err != nil {
			rep.failN(simsPerSweep, "sweep: %v", err)
			continue
		}
		if updateRef {
			if err := writeReference(opt.root, points); err != nil {
				return nil, err
			}
		} else if err := checkPoints(rep, points, simsPerSweep); err != nil {
			return nil, err
		}
		steps = 0
		for _, p := range points {
			steps += p.Steps.Mean * float64(p.Steps.N)
		}
	}
	rt1 := sampleRuntime()

	sweepSeconds := 0.0
	for _, s := range sweeps {
		sweepSeconds += s
	}
	sims := float64(simsPerSweep * len(sweeps))
	var sweepMs []float64
	for _, s := range sweeps {
		sweepMs = append(sweepMs, s*1000)
	}
	p50, _ := percentile(sweepMs, 50)
	p90, _ := percentile(sweepMs, 90)
	rep.endToEnd["sims_per_s"] = metric{sims / sweepSeconds, "1/s"}
	rep.endToEnd["jobs_per_s"] = metric{sims / sweepSeconds, "1/s"}
	rep.endToEnd["latency_p50_ms"] = metric{p50, "ms"}
	rep.endToEnd["latency_p90_ms"] = metric{p90, "ms"}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	rep.endToEnd["mem_peak_mb"] = metric{peakRSSMB(), "MB"}
	rep.record["sweeps"] = len(sweeps)
	rep.record["sims_per_sweep"] = simsPerSweep
	rep.record["latency_samples"] = len(sweeps)
	rep.record["setup_s_samples"] = setups
	rep.record["suite_seed"] = suiteSeed
	rep.record["parallelism"] = figureParallelism

	if !opt.trace {
		return rep, nil
	}
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	addRuntimeMetrics(rep, rt0, rt1, int(sims))
	calls, ns := counts.total()
	rep.perLayer["mapping.choose_calls"] = metric{float64(calls) / float64(len(sweeps)), "count"}
	nsMean := 0.0
	if calls > 0 {
		nsMean = float64(ns) / float64(calls)
	}
	rep.perLayer["mapping.choose_ns_mean"] = metric{nsMean, "ns"}
	rep.perLayer["simulator.steps"] = metric{steps, "count"}
	for _, m := range []struct{ name, unit string }{
		{"cluster.hop_ms_p50", "ms"},
		{"client.submit_ms_p50", "ms"}, {"client.wait_ms_p50", "ms"}, {"client.get_ms_p50", "ms"},
		{"service.compile_ms_p50", "ms"}, {"service.admission_ms_p50", "ms"},
		{"service.queue_ms_p50", "ms"}, {"service.run_ms_p50", "ms"},
		{"service.attempts_per_job", "count"}, {"service.race_useful_steps_frac", "fraction"},
		{"service.race_best_sim_frac", "fraction"},
		{"store.journal_ms_p50", "ms"}, {"store.journal_ms_p99", "ms"},
		{"store.records_per_job", "count"}, {"store.compaction_ms_mean", "ms"},
		{"replication.lag_records_p50", "count"}, {"replication.lag_records_max", "count"},
		{"replication.feed_ms_p50", "ms"},
	} {
		rep.notMeasured(m.name, m.unit, "figure4-sweep calls the library directly: no fleet")
	}
	return rep, nil
}

// checkPoints compares a sweep's points with the reference; each point
// that differs fails the simulations it averages.
func checkPoints(rep *report, points []experiments.Point, simsPerSweep int) error {
	var want []experiments.Point
	if err := json.Unmarshal(reference, &want); err != nil {
		return fmt.Errorf("reading the figure 4 reference: %w", err)
	}
	if len(want) != len(points) {
		rep.failN(simsPerSweep, "sweep has %d points, reference %d", len(points), len(want))
		return nil
	}
	for i, p := range points {
		got, _ := json.Marshal(p)
		ref, _ := json.Marshal(want[i])
		if string(got) != string(ref) {
			rep.failN(p.Steps.N, "figure 4 point %s/%d: got %s, reference %s", p.Series, p.Cores, got, ref)
		}
	}
	return nil
}

func writeReference(root string, points []experiments.Point) error {
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", referencePath), append(data, '\n'), 0o644)
}

// chooseCount accumulates one simulation's Choose calls. A simulation runs
// on one goroutine, so its counter needs no lock.
type chooseCount struct{ calls, ns int64 }

type countingAlgorithm struct {
	mapping.Algorithm
	c *chooseCount
}

func (a countingAlgorithm) Choose(v mapping.View) int {
	t0 := time.Now()
	i := a.Algorithm.Choose(v)
	a.c.ns += int64(time.Since(t0))
	a.c.calls++
	return i
}

// chooseCounts wraps the series' mapper factories so every Choose call is
// counted and timed, one counter per simulation.
type chooseCounts struct {
	mu     sync.Mutex
	perSim []*chooseCount
}

func countChooses(series []experiments.Series) *chooseCounts {
	cc := &chooseCounts{}
	for i := range series {
		inner := series[i].Mapper
		series[i].Mapper = func() mapping.Factory {
			c := &chooseCount{}
			cc.mu.Lock()
			cc.perSim = append(cc.perSim, c)
			cc.mu.Unlock()
			f := inner()
			return func(self sched.PID, nbrs []sched.PID, seed int64) mapping.Algorithm {
				return countingAlgorithm{f(self, nbrs, seed), c}
			}
		}
	}
	return cc
}

// total sums every simulation's counter; call it after the sweeps return.
func (cc *chooseCounts) total() (calls, ns int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, c := range cc.perSim {
		calls += c.calls
		ns += c.ns
	}
	return calls, ns
}
