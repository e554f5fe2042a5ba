package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{99, 10, 0},
		{100, 10, 0},
		{1, 1, 9},
	} {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty sample: got %v, %d", v, n)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestWindowTally(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := window{open: at(0), close: at(1000)}
	ops := []op{
		{start: at(-50), end: at(20)},                // warm-up straggler: not in the window
		{start: at(0), end: at(100)},                 // completed, 100 ms
		{start: at(100), end: at(400)},               // completed, 300 ms
		{start: at(400), end: at(450), failed: true}, // attempted, failed
		{start: at(900), end: at(1000)},              // ends on the close: completed
		{start: at(950), end: at(1200)},              // in flight at the close
		{start: at(1000), end: at(1100)},             // starts on the close: outside
	}
	got := w.tally(ops)
	if got.attempted != 5 || got.failed != 1 || got.completed != 3 {
		t.Fatalf("tally = %d attempted, %d failed, %d completed; want 5, 1, 3",
			got.attempted, got.failed, got.completed)
	}
	want := []float64{100, 300, 100}
	for i, l := range got.latenciesMs {
		if l != want[i] {
			t.Errorf("latency %d = %v ms, want %v", i, l, want[i])
		}
	}
	if got.seconds != 1 || got.perSecond() != 3 {
		t.Errorf("window %v s, %v ops/s; want 1 s, 3 ops/s", got.seconds, got.perSecond())
	}
}

func TestFailureAccounting(t *testing.T) {
	rep := newReport()
	rep.attempted = 600
	for i := 0; i < 12; i++ {
		rep.fail("job %d", i)
	}
	rep.failN(20, "point")
	if rep.failed != 32 {
		t.Errorf("failed = %d, want 32", rep.failed)
	}
	if len(rep.failures) != 10 {
		t.Errorf("kept %d failure messages, want the first 10", len(rep.failures))
	}
	rep.notMeasured("store.compaction_ms_mean", "ms", "no compaction")
	if m := rep.perLayer["store.compaction_ms_mean"]; m.Value != 0 || m.Unit != "ms" {
		t.Errorf("not-measured metric = %+v", m)
	}
	if nm := rep.record["not_measured"].(map[string]string); nm["store.compaction_ms_mean"] != "no compaction" {
		t.Errorf("not_measured record = %v", nm)
	}
}

func TestMixSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for _, stream := range []int64{timedStream, warmupStream, warmupStream + 1} {
		for i := int64(0); i < 1000; i++ {
			s := mix(7, stream, i)
			if s < 0 || seen[s] {
				t.Fatalf("mix(7, %d, %d) = %d: negative or repeated", stream, i, s)
			}
			seen[s] = true
		}
	}
	if mix(1, timedStream, 0) == mix(2, timedStream, 0) {
		t.Error("different workload seeds gave the same job seed")
	}
}
