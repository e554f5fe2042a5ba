package experiments

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// spinSink keeps the control loop's result live.
var spinSink [2]uint64

// spin is the CPU-bound control: a fixed amount of arithmetic split over
// two goroutines, touching no memory. Its 1-to-2-proc speedup is what the
// host actually delivers, since a shared host may report two CPUs and
// still run this process on one.
func spin() {
	var wg sync.WaitGroup
	for g := range spinSink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < 2_000_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			spinSink[g] = x
		}()
	}
	wg.Wait()
}

// BenchmarkSweepScaling runs a reduced Figure 4 sweep at GOMAXPROCS 1 and
// then 2, with the worker pool as wide as the procs, and reports the
// 2-proc speedup. Below 1.0x, two procs ran the sweep slower than one:
// parallelism went negative, a lock or scheduler regression rather than
// noise. It is a sanity floor, not a scaling target, measured only up to
// two procs.
//
// The floor needs a second CPU to scale onto. Each leg is timed best of
// several interleaved repetitions after a warm-up, next to the spin
// control; the floor is checked only when the control shows the host gave
// this process a second CPU (at least 1.5x). On a single-CPU host, or a
// shared one whose second CPU is busy elsewhere, both speedups are only
// reported.
func BenchmarkSweepScaling(b *testing.B) {
	w, err := SmallWorkload(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(procs int) time.Duration {
		start := time.Now()
		if _, err := Figure4(Figure4Config{
			Workload:    w,
			Series:      DefaultFigure4Series([]int{16, 64}, []int{27}, []int{16}),
			Seed:        1,
			Parallelism: procs,
		}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	sweep(orig)
	b.ResetTimer()
	// Best times at 1 and 2 procs.
	var sweepBest, spinBest [2]time.Duration
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < 10; rep++ {
			for p := range sweepBest {
				runtime.GOMAXPROCS(p + 1)
				start := time.Now()
				spin()
				if d := time.Since(start); spinBest[p] == 0 || d < spinBest[p] {
					spinBest[p] = d
				}
				if d := sweep(p + 1); sweepBest[p] == 0 || d < sweepBest[p] {
					sweepBest[p] = d
				}
			}
		}
	}
	speedup := float64(sweepBest[0]) / float64(sweepBest[1])
	host := float64(spinBest[0]) / float64(spinBest[1])
	b.ReportMetric(speedup, "speedup_2proc")
	b.ReportMetric(host, "host_speedup_2proc")
	if runtime.NumCPU() < 2 || host < 1.5 {
		b.Logf("host delivered %.2fx on the CPU-bound control: no second CPU, floor not checked", host)
		return
	}
	if speedup < 1 {
		b.Fatalf("2-proc sweep speedup %.2fx is below the 1.0x floor (host control %.2fx)", speedup, host)
	}
}
