package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hypersolve/internal/apps"
	"hypersolve/internal/mesh"
	"hypersolve/internal/simulator"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
)

// TestBrokerSlowSubscriberNeverBlocks: a subscriber that never reads must
// not block Publish — the solve loop's thread — no matter how many
// snapshots are published. Conflation keeps exactly the newest snapshot
// pending.
func TestBrokerSlowSubscriberNeverBlocks(t *testing.T) {
	b := NewProgressBroker()
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			b.Publish(Progress{State: StateRunning, Step: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a subscriber that never reads")
	}
	p := <-ch
	if p.Step != 9999 {
		t.Fatalf("pending snapshot = step %d, want the newest (9999)", p.Step)
	}
}

// TestBrokerTerminalAlwaysDelivered: even when the terminal snapshot
// conflates away a pending progress snapshot, the last value every
// subscriber receives before its channel closes is the terminal one.
func TestBrokerTerminalAlwaysDelivered(t *testing.T) {
	b := NewProgressBroker()
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Fill the subscriber's buffer, then finish without it ever reading.
	b.Publish(Progress{State: StateRunning, Step: 1})
	b.Publish(Progress{State: StateRunning, Step: 2})
	b.Finish(StateDone, "", "", &JobResult{Stats: statsWithSteps(42)})

	var last Progress
	n := 0
	for p := range ch {
		last = p
		n++
	}
	if n != 1 {
		t.Fatalf("subscriber received %d snapshots, want just the conflated terminal one", n)
	}
	if last.State != StateDone || last.Step != 42 {
		t.Fatalf("last snapshot = %+v, want done at step 42", last)
	}

	// Publishing after the terminal snapshot is ignored, not a panic on a
	// closed channel.
	b.Publish(Progress{State: StateRunning, Step: 99})
}

// TestBrokerSubscribeAfterDone: a late subscriber replays the final
// snapshot on an already-closed channel.
func TestBrokerSubscribeAfterDone(t *testing.T) {
	b := NewProgressBroker()
	b.Publish(Progress{State: StateRunning, Step: 7, Queued: 3})
	b.Finish(StateFailed, "boom", "", nil)

	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	p, ok := <-ch
	if !ok {
		t.Fatal("late subscriber got no replay")
	}
	if p.State != StateFailed || p.Error != "boom" || p.Step != 7 {
		t.Fatalf("replayed snapshot = %+v, want failed/boom at the last published step", p)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel not closed after the replay")
	}
}

// TestBrokerFanOutBound: subscriptions beyond the per-job cap are rejected,
// and unsubscribing frees a slot.
func TestBrokerFanOutBound(t *testing.T) {
	b := NewProgressBroker()
	cancels := make([]func(), 0, maxSubscribers)
	for i := 0; i < maxSubscribers; i++ {
		_, cancel, err := b.Subscribe()
		if err != nil {
			t.Fatalf("subscriber %d rejected below the bound: %v", i, err)
		}
		cancels = append(cancels, cancel)
	}
	if _, _, err := b.Subscribe(); err != ErrTooManySubscribers {
		t.Fatalf("subscribe at the bound = %v, want ErrTooManySubscribers", err)
	}
	cancels[0]()
	if _, cancel, err := b.Subscribe(); err != nil {
		t.Fatalf("subscribe after an unsubscribe: %v", err)
	} else {
		cancel()
	}
}

// TestBrokerConcurrentPublishSubscribe exercises the broker under the race
// detector: concurrent publishers, subscribers and unsubscribers, ending in
// a terminal snapshot every reader observes.
func TestBrokerConcurrentPublishSubscribe(t *testing.T) {
	b := NewProgressBroker()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel, err := b.Subscribe()
			if err != nil {
				return // fan-out bound; fine under contention
			}
			defer cancel()
			for p := range ch {
				if p.State.Terminal() {
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		b.Publish(Progress{State: StateRunning, Step: int64(i)})
	}
	b.Finish(StateCancelled, "", "", nil)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a subscriber never saw the terminal snapshot")
	}
}

// TestObserverThrottle: the observer publishes at most one snapshot per
// ProgressInterval however many steps elapse, and only on the
// progressCheckSteps cadence.
func TestObserverThrottle(t *testing.T) {
	b := NewProgressBroker()
	obs := b.Observer(ObserverHooks{})
	// Pretend the last publish is long past so the very next check fires.
	obs.lastPub = time.Now().Add(-time.Hour)
	ch, cancel, err := b.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for step := int64(0); step < 4*progressCheckSteps; step++ {
		obs.AfterStep(step, 5)
	}
	// Only the first eligible check may have published: the rest fall
	// within the throttle window.
	select {
	case p := <-ch:
		if p.State != StateRunning || p.Queued != 5 {
			t.Fatalf("snapshot = %+v, want running with 5 queued", p)
		}
	default:
		t.Fatal("no snapshot published despite an expired throttle window")
	}
	select {
	case p := <-ch:
		t.Fatalf("second snapshot %+v published within the throttle interval", p)
	default:
	}
}

// floodAllocsPerRun measures one 32x32 torus flood's allocations under
// the given observer with testing.AllocsPerRun. The guard compares these
// readings rather than benchmark allocs/op, which carry ±1 op of ambient
// noise (framework allocations divided by an elapsed-time-dependent N):
// AllocsPerRun runs a fixed count on one proc and floors the mean, while a
// per-step regression adds thousands per run.
func floodAllocsPerRun(t *testing.T, obs simulator.Observer) int64 {
	t.Helper()
	topo := mesh.MustTorus(32, 32)
	return int64(testing.AllocsPerRun(100, func() {
		sim, err := simulator.New(simulator.Config{
			Topology: topo,
			Factory:  func(mesh.NodeID) simulator.Handler { return &apps.Traversal{} },
			Observer: obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(0, nil); err != nil {
			t.Fatal(err)
		}
		if !sim.Run().Quiescent {
			t.Fatal("flood did not quiesce")
		}
	}))
}

// TestObserverAddsNoFloodAllocs guards the solve loop's zero-allocation
// contract: every job runs under a progress observer, usually with no
// subscriber, counting steps into telemetry and annotating its trace span.
// Each of those configurations must allocate exactly what the bare flood
// does. The observers run on the default (event) engine, the path every
// job takes.
//
// The contract is per step; a publish may allocate (the snapshot, the
// annotation). How many publishes land inside the measured runs depends
// on the wall clock, so a slow host (loaded, or under -race) tips the
// floored reading by one. Each observer's last publish is therefore set
// an hour ahead: the measured runs are the pure step loop, and a hook
// that moves out of the throttle still runs, and allocates, per step.
func TestObserverAddsNoFloodAllocs(t *testing.T) {
	counter := func() *telemetry.Counter {
		return telemetry.NewRegistry().Counter("test_sim_steps_total", "test-only step counter")
	}
	tr := tracelog.NewTrace(tracelog.TraceContext{})
	span := tr.StartSpan("run")
	defer tr.EndSpan(span)

	bare := floodAllocsPerRun(t, nil)
	t.Logf("bare flood: %d allocs/run", bare)
	for _, c := range []struct {
		name string
		obs  *ProgressObserver
	}{
		{"observer", NewProgressBroker().Observer(ObserverHooks{})},
		{"observer+counter", NewProgressBroker().CountSteps(counter()).Observer(ObserverHooks{})},
		{"observer+counter+annotate", NewProgressBroker().CountSteps(counter()).
			Observer(ObserverHooks{Annotate: func(step int64, queued int) {
				tr.Annotate(span, fmt.Sprintf("step %d, %d queued", step, queued))
			}})},
	} {
		c.obs.lastPub = time.Now().Add(time.Hour)
		if got := floodAllocsPerRun(t, c.obs); got != bare {
			t.Errorf("%s: %d allocs/run, want %d (bare flood)", c.name, got, bare)
		}
	}
}

// TestServiceSubscribeLifecycle drives Subscribe through the service
// in-process: queued snapshot on submit, terminal snapshot on completion,
// synthesized replay for terminal jobs whose broker is gone, ErrNotFound
// for unknown jobs.
func TestServiceSubscribeLifecycle(t *testing.T) {
	s := New(Config{QueueDepth: 4, Workers: 1})
	defer s.Close()

	if _, _, err := s.Subscribe(999); err != ErrNotFound {
		t.Fatalf("Subscribe(unknown) = %v, want ErrNotFound", err)
	}

	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var last Progress
	got := 0
	for p := range ch {
		last = p
		got++
	}
	if got == 0 || last.State != StateDone {
		t.Fatalf("stream delivered %d snapshots ending %+v, want >=1 ending done", got, last)
	}
	if last.Step <= 0 {
		t.Fatalf("terminal snapshot step = %d, want the run's total steps", last.Step)
	}

	// The broker is gone now; a late Subscribe synthesizes the final
	// snapshot from the store record.
	ch2, cancel2, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	p, ok := <-ch2
	if !ok || p.State != StateDone || p.Step != last.Step {
		t.Fatalf("late subscribe replayed %+v (ok=%v), want done at step %d", p, ok, last.Step)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("late subscribe channel not closed")
	}
}

// TestServiceSubscribeSeesCancel: a subscriber on a running job observes
// the cancelled terminal snapshot when the job is cancelled mid-solve.
func TestServiceSubscribeSeesCancel(t *testing.T) {
	s := New(Config{QueueDepth: 4, Workers: 1})
	defer s.Close()
	job, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(job.ID.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitForState(t, s, job.ID.Seq, StateRunning)
	if _, err := s.Cancel(job.ID.Seq); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case p, ok := <-ch:
			if !ok {
				t.Fatal("stream closed without a terminal snapshot")
			}
			if p.State.Terminal() {
				if p.State != StateCancelled {
					t.Fatalf("terminal snapshot state = %s, want cancelled", p.State)
				}
				return
			}
		case <-deadline:
			t.Fatal("no terminal snapshot after cancel")
		}
	}
}

// waitForState polls the service until the job reaches the state (the
// in-process analogue of the HTTP tests' poll loops).
func waitForState(t *testing.T, s *Service, id int64, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Get(id); ok && j.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached state %s", id, want)
}

func statsWithSteps(n int64) simulator.Stats {
	return simulator.Stats{Steps: n}
}
