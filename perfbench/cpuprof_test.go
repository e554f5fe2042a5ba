package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// cannedProfile encodes a CPU profile with the stacks below, leaf first:
//
//	weight 60: store.(*File).tailPush ← store.(*File).append ← service.(*Service).SubmitTraced
//	weight 20: runtime.mallocgc ← sat.(*Problem).Clone (inlined into) sat.task ← recursion.run
//	weight 15: runtime.gcDrain ← runtime.gcBgMarkWorker
//	weight  5: syscall.Syscall ← net/http.(*conn).serve
//
// The first sample lists its locations unpacked, the others packed, as
// runtime/pprof may write either.
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds",
		"hypersolve/internal/store.(*File).tailPush",          // 5
		"hypersolve/internal/store.(*File).append",            // 6
		"hypersolve/internal/service.(*Service).SubmitTraced", // 7
		"runtime.mallocgc",                             // 8
		"hypersolve/internal/sat.(*Problem).Clone",     // 9
		"hypersolve/internal/sat.task.func1",           // 10
		"hypersolve/internal/recursion.(*Runtime).run", // 11
		"runtime.gcDrain",                              // 12
		"runtime.gcBgMarkWorker",                       // 13
		"syscall.Syscall",                              // 14
		"net/http.(*conn).serve",                       // 15
	}
	prof := &pb{}
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		prof.bytes(1, (&pb{}).varint(1, vt[0]).varint(2, vt[1]).b)
	}
	sample := func(weight uint64, packed bool, locs ...uint64) {
		s := &pb{}
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, weight/10_000_000, weight)
		prof.bytes(2, s.b)
	}
	sample(60, false, 1, 2, 3)
	sample(20, true, 4, 5, 6)
	sample(15, true, 7, 8)
	sample(5, true, 9, 10)
	// Location 5 holds an inlined frame: sat.(*Problem).Clone inside
	// sat.task.func1, innermost first.
	locFuncs := map[uint64][]uint64{1: {5}, 2: {6}, 3: {7}, 4: {8}, 5: {9, 10}, 6: {11}, 7: {12}, 8: {13}, 9: {14}, 10: {15}}
	for id := uint64(1); id <= 10; id++ {
		loc := (&pb{}).varint(1, id).varint(3, 0x1000+id)
		for _, fn := range locFuncs[id] {
			loc.bytes(4, (&pb{}).varint(1, fn).varint(2, 42).b)
		}
		prof.bytes(4, loc.b)
	}
	for fn := uint64(5); fn <= 15; fn++ {
		prof.bytes(5, (&pb{}).varint(1, fn).varint(2, fn).varint(4, 0).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseCannedProfile(t *testing.T) {
	samples, err := parseCPUProfile(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("decoded %d samples, want 4", len(samples))
	}
	second := samples[1]
	want := []string{
		"runtime.mallocgc",
		"hypersolve/internal/sat.(*Problem).Clone",
		"hypersolve/internal/sat.task.func1",
		"hypersolve/internal/recursion.(*Runtime).run",
	}
	if second.weight != 20 || len(second.frames) != len(want) {
		t.Fatalf("sample 2 = %+v, want weight 20 and frames %v", second, want)
	}
	for i, fn := range want {
		if second.frames[i] != fn {
			t.Errorf("sample 2 frame %d = %q, want %q", i, second.frames[i], fn)
		}
	}

	shares := cpuShares(samples)
	for bucket, want := range map[string]float64{
		"store": 0.60, "sat": 0.20, "gc": 0.15, "other": 0.05,
		"service": 0, "recursion": 0, "version": 0,
	} {
		got, ok := shares[bucket]
		if !ok || math.Abs(got-want) > 1e-12 {
			t.Errorf("cpu.%s = %v (present %v), want %v", bucket, got, ok, want)
		}
	}
	if len(shares) != len(internalModules)+2 {
		t.Errorf("%d buckets, want one per internal module plus gc and other", len(shares))
	}
}

func TestParseRejectsTruncatedProfile(t *testing.T) {
	data := cannedProfile(t)
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	_, _ = zw.Write(raw.Bytes()[:raw.Len()-3])
	_ = zw.Close()
	if _, err := parseCPUProfile(cut.Bytes()); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hypersolve/internal/store.(*File).tailPush":        "store",
		"hypersolve/internal/simulator/difftest.Run":        "simulator",
		"hypersolve/internal/ringbuf.(*Ring[...]).Push":     "ringbuf",
		"hypersolve/perfbench.main":                         "",
		"runtime.gcBgMarkWorker":                            "",
		"vendor/hypersolve/internal/store.(*File).tailPush": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
