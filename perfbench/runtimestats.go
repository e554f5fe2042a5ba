package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// runtime.* metrics are deltas of.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	processCPU               float64
	at                       time.Time
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		processCPU:   cpuSeconds(),
		at:           time.Now(),
	}
}

// addRuntimeMetrics reports the runtime.* and parallel.cpu_util metrics
// over [from, to], with ops operations done in between. cpu_util divides
// the process CPU time by the two CPUs the workload may keep busy.
func addRuntimeMetrics(rep *report, from, to runtimeSample, ops int) {
	n := float64(max(ops, 1))
	rep.perLayer["runtime.allocs_per_op"] = metric{float64(to.allocObjects-from.allocObjects) / n, "count"}
	rep.perLayer["runtime.alloc_kb_per_op"] = metric{float64(to.allocBytes-from.allocBytes) / 1024 / n, "KiB"}
	gcFrac := 0.0
	if d := to.totalCPU - from.totalCPU; d > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / d
	}
	rep.perLayer["runtime.gc_cpu_frac"] = metric{gcFrac, "fraction"}
	util := 0.0
	if wall := to.at.Sub(from.at).Seconds(); wall > 0 {
		util = (to.processCPU - from.processCPU) / (wall * 2)
	}
	rep.perLayer["parallel.cpu_util"] = metric{util, "fraction"}
}

// cpuProfile collects a CPU profile of the timed window in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and adds one cpu.<bucket> share per bucket.
func (p *cpuProfile) stop(rep *report) error {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for bucket, share := range cpuShares(samples) {
		rep.perLayer["cpu."+bucket] = metric{share, "fraction"}
	}
	rep.record["cpu_profile_samples"] = len(samples)
	return nil
}
