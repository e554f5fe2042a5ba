package store

import (
	"encoding/json"
	"testing"
	"time"
)

// benchSpec and benchResult are a representative job spec and ~200-byte
// result payload.
var benchSpec = spec(20)

var benchResult = json.RawMessage(`{"ok":true,"value":210,"computation_time":1201,"performance":0.17,` +
	`"stats":{"steps":1201,"delivered":40,"sent":40,"dropped":0,"retransmits":0,"max_queue":1,"quiescent":true}}`)

// cycle drives one submit→start→finish job lifecycle: three journal
// records on the file backend.
func cycle(b *testing.B, s Store) {
	j, err := s.Submit(benchSpec, time.Now().UTC())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(j.ID, time.Now().UTC()); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Finish(j.ID, StateDone, time.Now().UTC(), "", benchResult); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTransition measures the per-transition cost of each backend:
// one op is a submit→start→finish cycle at the daemon's default snapshot
// cadence, so the file backends pay for compaction and the replication
// tail as they do in service.
func BenchmarkTransition(b *testing.B) {
	for _, c := range []struct {
		name string
		open func(b *testing.B) Store
	}{
		{"memory", func(*testing.B) Store { return NewMemory(0) }},
		{"file", func(b *testing.B) Store { return openBench(b, FileConfig{Dir: b.TempDir()}) }},
		{"file_fsync", func(b *testing.B) Store { return openBench(b, FileConfig{Dir: b.TempDir(), Fsync: true}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := c.open(b)
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(b, s)
			}
			b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkApplyFeed measures a standby's steady-state tail path: a fresh
// replica pulls a primary's 9000-record journal page by page and applies
// it. Snapshots are pushed past the record count on both sides so the
// feed serves records, not a snapshot bootstrap.
func BenchmarkApplyFeed(b *testing.B) {
	const cycles = 3000 // 9000 journal records
	cfg := FileConfig{Dir: b.TempDir(), SnapshotEvery: 20000}
	p := openBench(b, cfg)
	defer p.Close()
	for i := 0; i < cycles; i++ {
		cycle(b, p)
	}
	_, srcLSN := p.ReplicationState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.Dir, cfg.Replica = b.TempDir(), true
		r := openBench(b, cfg)
		b.StartTimer()
		for lsn := int64(0); lsn < srcLSN; {
			page, err := p.Feed(lsn+1, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.ApplyFeed(page); err != nil {
				b.Fatal(err)
			}
			_, lsn = r.ReplicationState()
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(srcLSN)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func openBench(b *testing.B, cfg FileConfig) *File {
	b.Helper()
	f, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return f
}
