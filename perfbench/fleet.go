package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypersolve/internal/cluster"
	"hypersolve/internal/core"
	"hypersolve/internal/sat"
	"hypersolve/internal/service"
	"hypersolve/internal/simulator"
	"hypersolve/internal/store"
	"hypersolve/internal/telemetry"
	"hypersolve/internal/tracelog"
)

const (
	shards          = 2
	workersPerShard = 2
	// setupsPerRun is how many times a run starts and warms a fleet; setup_s
	// is their median and the last fleet serves the timed window.
	setupsPerRun  = 3
	warmupTimeout = 60 * time.Second
	// checkSample is how many timed jobs (the first by submit order) are
	// re-run in process through core and compared with the fleet's result.
	checkSample = 16
	// raceSample is how many portfolio races the traced run re-runs under
	// every strategy to judge the winner (service.race_best_sim_frac).
	raceSample = 8
	// warmupStream and timedStream keep warm-up and timed job specs apart.
	warmupStream = 100
	timedStream  = 1
)

// jobShape describes the SAT jobs a fleet workload submits.
type jobShape struct {
	clients          int
	vars, clauses    int
	topology, mapper string
	portfolio        []string
}

var fleetShapes = map[string]jobShape{
	"fleet-small":     {clients: 2, vars: 20, clauses: 91, topology: "torus:4x4", mapper: "lbn"},
	"fleet-portfolio": {clients: 1, vars: 50, clauses: 218, topology: "torus:14x14", portfolio: []string{"rr", "weighted"}},
}

// warmupShape is the job every fleet warms up with: cheap to solve, so
// the journal fills fast.
var warmupShape = fleetShapes["fleet-small"]

// job returns job i of a stream: a satisfiable random 3-SAT formula and
// the spec that submits it. Every formula and job seed derives from the
// workload seed; the job seed differs per job, so no two specs are equal.
func (js jobShape) job(seed, stream, i int64) (service.JobSpec, sat.Formula, error) {
	s := mix(seed, stream, i)
	suite, err := sat.GenerateSuite(sat.SuiteParams{
		Count: 1, NumVars: js.vars, NumClauses: js.clauses, Seed: s, RequireSAT: true,
	})
	if err != nil {
		return service.JobSpec{}, sat.Formula{}, err
	}
	var cnf strings.Builder
	if err := sat.WriteDIMACS(&cnf, suite[0]); err != nil {
		return service.JobSpec{}, sat.Formula{}, err
	}
	spec := service.JobSpec{
		Kind: "sat", CNF: cnf.String(), Topology: js.topology,
		Mapper: js.mapper, Portfolio: js.portfolio, Seed: s,
	}
	return spec, suite[0], nil
}

// mix hashes its arguments into a non-negative seed (splitmix64 steps).
func mix(xs ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range xs {
		h ^= uint64(x)
		h += 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// server is one loopback HTTP listener of the fleet.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // the fleet is torn down; in-flight requests are dropped
	<-s.done
}

// fleet is the in-process cluster: a router in front of two shards, each
// a durable primary with a standby following it.
type fleet struct {
	router      *cluster.Router
	routerSrv   *server
	primaries   []*service.Node
	standbys    []*service.Node
	primarySrv  []*server
	standbySrv  []*server
	primaryURLs []string
	standbyURLs []string
	routerURL   string
	measure     *http.Client // scrapes, status polls and trace reads
}

func startFleet(dir string, pr *probes) (f *fleet, err error) {
	f = &fleet{measure: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	for i := 1; i <= shards; i++ {
		n, err := service.NewNode(service.NodeConfig{
			Dir:     filepath.Join(dir, fmt.Sprintf("s%d-primary", i)),
			Service: service.Config{Workers: workersPerShard},
		})
		if err != nil {
			return f, err
		}
		f.primaries = append(f.primaries, n)
		srv, err := serve(pr.shardHandler(n.Handler()))
		if err != nil {
			return f, err
		}
		f.primarySrv = append(f.primarySrv, srv)
		f.primaryURLs = append(f.primaryURLs, srv.url)
	}
	for i, follow := range f.primaryURLs {
		n, err := service.NewNode(service.NodeConfig{
			Dir:     filepath.Join(dir, fmt.Sprintf("s%d-standby", i+1)),
			Service: service.Config{Workers: workersPerShard},
			Follow:  follow,
		})
		if err != nil {
			return f, err
		}
		f.standbys = append(f.standbys, n)
		srv, err := serve(n.Handler())
		if err != nil {
			return f, err
		}
		f.standbySrv = append(f.standbySrv, srv)
		f.standbyURLs = append(f.standbyURLs, srv.url)
	}
	f.router, err = cluster.New(cluster.Config{Backends: f.primaryURLs, Standbys: f.standbyURLs})
	if err != nil {
		return f, err
	}
	if f.routerSrv, err = serve(pr.routerHandler(cluster.NewHandler(f.router))); err != nil {
		return f, err
	}
	f.routerURL = f.routerSrv.url
	return f, nil
}

// stop tears the fleet down front to back: router, standbys, primaries.
func (f *fleet) stop() {
	if f.routerSrv != nil {
		f.routerSrv.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.standbySrv {
		s.close()
	}
	for _, n := range f.standbys {
		n.Close()
	}
	for _, s := range f.primarySrv {
		s.close()
	}
	for _, n := range f.primaries {
		n.Close()
	}
	f.measure.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the router's and standbys' pooled connections
	}
}

// scrape sums each sample of a primary's /metrics by series name.
func (f *fleet) scrape(ctx context.Context, base string) (map[string]float64, error) {
	c := service.Client{Base: base, HTTP: f.measure}
	data, err := c.RawMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	out := map[string]float64{}
	for _, fam := range telemetry.ParseText(data) {
		for _, s := range fam.Samples {
			if v, err := strconv.ParseFloat(s.Value, 64); err == nil {
				out[s.Name] += v
			}
		}
	}
	return out, nil
}

// storeCounters are the primaries' store counters, summed over both.
type storeCounters struct {
	records, compactions, compactionSec float64
	// minRecords is the smaller primary's records_total: the gate's input.
	minRecords float64
}

func (f *fleet) storeCounters(ctx context.Context) (storeCounters, error) {
	sc := storeCounters{minRecords: -1}
	for _, u := range f.primaryURLs {
		m, err := f.scrape(ctx, u)
		if err != nil {
			return storeCounters{}, err
		}
		r := m["hypersolve_store_records_total"]
		sc.records += r
		sc.compactions += m["hypersolve_store_compactions_total"]
		sc.compactionSec += m["hypersolve_store_compaction_seconds_sum"]
		if sc.minRecords < 0 || r < sc.minRecords {
			sc.minRecords = r
		}
	}
	return sc, nil
}

// steadyRecords is the warm-up gate: every primary has journaled more than
// this many records, so its replication feed tail is full and compaction
// has run.
const steadyRecords = 2 * store.DefaultSnapshotEvery

// loadClient is one closed-loop client on its own HTTP connection.
type loadClient struct{ c service.Client }

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &loadClient{c: service.Client{Base: base, HTTP: &http.Client{Transport: tr}}}
}

func closeClients(clients []*loadClient) {
	for _, lc := range clients {
		lc.c.HTTP.CloseIdleConnections()
	}
}

// jobOutcome is one fleet job as the client saw it.
type jobOutcome struct {
	index int64
	op    op
	err   error
	spec  service.JobSpec
	job   service.Job
	// Client call times in milliseconds.
	submitMs, waitMs, getMs float64
}

// run submits one job through the router, follows its event stream to the
// end frame, fetches the terminal record and checks it.
func (lc *loadClient) run(ctx context.Context, spec service.JobSpec, f sat.Formula) jobOutcome {
	// A trace ID per job lets the probes match the router's and the
	// shard's handling of the submit.
	ctx = tracelog.NewContext(ctx, tracelog.NewTraceContext())
	out := jobOutcome{spec: spec}
	out.op.start = time.Now()
	job, err := lc.c.Submit(ctx, spec)
	t1 := time.Now()
	if err == nil {
		err = lc.follow(ctx, job.ID)
	}
	t2 := time.Now()
	if err == nil {
		job, err = lc.c.Get(ctx, job.ID)
	}
	out.op.end = time.Now()
	out.submitMs, out.waitMs, out.getMs = ms(t1.Sub(out.op.start)), ms(t2.Sub(t1)), ms(out.op.end.Sub(t2))
	out.job = job
	if err == nil {
		err = checkJob(job, f)
	}
	out.err = err
	out.op.failed = err != nil
	return out
}

// follow reads a job's event stream up to the end frame, then drains the
// response so the client's connection is reused.
func (lc *loadClient) follow(ctx context.Context, id service.JobID) error {
	body, err := lc.c.OpenEvents(ctx, id)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := service.DecodeEvents(ctx, body, nil); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, body)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkJob verifies a terminal record: the job is done, and its SAT
// assignment satisfies the formula the benchmark generated.
func checkJob(job service.Job, f sat.Formula) error {
	if job.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	r := job.Result
	if r == nil || !r.OK || r.SAT == nil {
		return fmt.Errorf("job %s: done without a SAT result", job.ID)
	}
	if r.SAT.Status != sat.SAT.String() {
		return fmt.Errorf("job %s: status %s for a satisfiable formula", job.ID, r.SAT.Status)
	}
	a := sat.NewAssignment(f.NumVars)
	for _, lit := range r.SAT.Assignment {
		v := max(lit, -lit)
		if v < 1 || v > f.NumVars {
			return fmt.Errorf("job %s: assignment names variable %d of %d", job.ID, v, f.NumVars)
		}
		a[v] = 1
		if lit < 0 {
			a[v] = -1
		}
	}
	if !sat.Verify(f, a) {
		return fmt.Errorf("job %s: assignment does not satisfy the formula", job.ID)
	}
	return nil
}

// drive runs the closed loop: every client submits job after job, each
// waiting for the previous one, until stop reports true. Jobs are
// numbered in submit order across clients; outcomes come back in that
// order.
func drive(ctx context.Context, clients []*loadClient, shape jobShape, seed, stream int64, stop func() bool) ([]jobOutcome, error) {
	var next atomic.Int64
	per := make([][]jobOutcome, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, lc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := next.Add(1) - 1
				spec, f, err := shape.job(seed, stream, i)
				if err != nil {
					errs[ci] = err
					return
				}
				o := lc.run(ctx, spec, f)
				o.index = i
				per[ci] = append(per[ci], o)
			}
		}()
	}
	wg.Wait()
	var all []jobOutcome
	for ci := range clients {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		all = append(all, per[ci]...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].index < all[b].index })
	return all, nil
}

// warmUp runs untimed jobs until every primary has journaled more than
// steadyRecords records.
func (f *fleet) warmUp(ctx context.Context, clients []*loadClient, seed, stream int64) ([]jobOutcome, error) {
	var ready atomic.Bool
	var pollErr error
	quit := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			sc, err := f.storeCounters(ctx)
			if err != nil {
				pollErr = err
				return
			}
			if sc.minRecords > steadyRecords {
				ready.Store(true)
				return
			}
		}
	}()
	deadline := time.Now().Add(warmupTimeout)
	outs, err := drive(ctx, clients, warmupShape, seed, stream, func() bool {
		return ready.Load() || time.Now().After(deadline)
	})
	close(quit)
	<-polled
	switch {
	case err != nil:
		return nil, err
	case pollErr != nil:
		return nil, pollErr
	case !ready.Load():
		return nil, fmt.Errorf("warm-up: primaries below %d journal records after %v", steadyRecords, warmupTimeout)
	}
	return outs, nil
}

// setUp starts a fleet and warms it to the steady state, setupsPerRun
// times, tearing down all but the last. It returns the last fleet, its
// two clients, each set-up's seconds and the last warm-up's job count.
func setUp(ctx context.Context, opt options, dir string, pr *probes, rep *report) (f *fleet, clients []*loadClient, setups []float64, warmupJobs int, err error) {
	for k := 0; k < setupsPerRun; k++ {
		if f != nil {
			closeClients(clients)
			f.stop()
		}
		t0 := time.Now()
		if f, err = startFleet(filepath.Join(dir, strconv.Itoa(k)), pr); err != nil {
			return nil, nil, nil, 0, err
		}
		clients = []*loadClient{newLoadClient(f.routerURL), newLoadClient(f.routerURL)}
		outs, err := f.warmUp(ctx, clients, opt.seed, warmupStream+int64(k))
		if err != nil {
			closeClients(clients)
			f.stop()
			return nil, nil, nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		warmupJobs = len(outs)
		for _, o := range outs {
			rep.attempted++
			if o.err != nil {
				rep.fail("warm-up: %v", o.err)
			}
		}
	}
	return f, clients, setups, warmupJobs, nil
}

// runFleet runs fleet-small or fleet-portfolio.
func runFleet(opt options) (*report, error) {
	shape := fleetShapes[opt.workload]
	rep := newReport()
	ctx := context.Background()
	dir, err := scratchDir(opt.root, opt.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var pr *probes
	if opt.trace {
		pr = newProbes()
	}
	f, clients, setups, warmupJobs, err := setUp(ctx, opt, dir, pr, rep)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	defer closeClients(clients)

	// The steady-state gate: the window opens only once every primary is
	// past it.
	before, err := f.storeCounters(ctx)
	if err != nil {
		return nil, err
	}
	if before.minRecords <= steadyRecords {
		return nil, fmt.Errorf("steady-state gate: a primary has %v journal records, want > %d", before.minRecords, steadyRecords)
	}

	// The timed window.
	var prof *cpuProfile
	var lag *lagSampler
	if opt.trace {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
		lag = f.sampleLag(ctx)
		pr.on.Store(true)
	}
	rt0 := sampleRuntime()
	win := window{open: time.Now()}
	win.close = win.open.Add(time.Duration(opt.seconds) * time.Second)
	outs, err := drive(ctx, clients[:shape.clients], shape, opt.seed, timedStream, func() bool {
		return !time.Now().Before(win.close)
	})
	rt1 := sampleRuntime()
	if opt.trace {
		pr.on.Store(false)
		lag.stop()
		if perr := prof.stop(rep); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	after, err := f.storeCounters(ctx)
	if err != nil {
		return nil, err
	}

	// Accounting and output checks.
	ops := make([]op, len(outs))
	var completed []jobOutcome
	for i, o := range outs {
		ops[i] = o.op
		rep.attempted++
		if o.err != nil {
			rep.fail("%v", o.err)
		}
		if win.completes(o.op) {
			completed = append(completed, o)
		}
	}
	checked := 0
	for _, o := range outs {
		if checked == checkSample {
			break
		}
		if o.err != nil {
			continue
		}
		checked++
		if err := checkAgainstCore(o); err != nil {
			rep.fail("core check: %v", err)
		}
	}

	t := win.tally(ops)
	sims := 0
	for _, o := range completed {
		sims += simulationsRun(o.job)
	}
	p50, _ := percentile(t.latenciesMs, 50)
	p90, beyond90 := percentile(t.latenciesMs, 90)
	p99, beyond99 := percentile(t.latenciesMs, 99)
	rep.endToEnd["jobs_per_s"] = metric{t.perSecond(), "1/s"}
	rep.endToEnd["sims_per_s"] = metric{float64(sims) / t.seconds, "1/s"}
	rep.endToEnd["latency_p50_ms"] = metric{p50, "ms"}
	rep.endToEnd["latency_p90_ms"] = metric{p90, "ms"}
	rep.endToEnd["setup_s"] = metric{median(setups), "s"}
	rep.endToEnd["mem_peak_mb"] = metric{peakRSSMB(), "MB"}
	rep.record["window_s"] = t.seconds
	rep.record["timed_jobs"] = t.attempted
	rep.record["completed_jobs"] = t.completed
	rep.record["latency_samples"] = len(t.latenciesMs)
	rep.record["latency_p90_samples_beyond"] = beyond90
	// p99 is recorded, not bounded: fleet-portfolio leaves only a few
	// samples beyond it, too few for a steady figure.
	rep.record["latency_p99_ms"] = p99
	rep.record["latency_p99_samples_beyond"] = beyond99
	rep.record["setup_s_samples"] = setups
	rep.record["warmup_jobs"] = warmupJobs
	rep.record["warmup_gate_records"] = steadyRecords
	rep.record["core_checked_jobs"] = checked

	if !opt.trace {
		return rep, nil
	}
	addRuntimeMetrics(rep, rt0, rt1, len(outs))
	timedJobs := float64(max(len(outs), 1))
	rep.perLayer["store.records_per_job"] = metric{(after.records - before.records) / timedJobs, "count"}
	compactions := after.compactions - before.compactions
	if compactions > 0 {
		rep.perLayer["store.compaction_ms_mean"] = metric{(after.compactionSec - before.compactionSec) * 1000 / compactions, "ms"}
	} else {
		rep.notMeasured("store.compaction_ms_mean", "ms", "no compaction ran in the window")
	}
	rep.record["compactions"] = compactions
	if err := addFleetLayers(ctx, rep, f, pr, lag, completed); err != nil {
		return nil, err
	}
	if len(shape.portfolio) > 0 {
		addRaceQuality(rep, outs, shape)
	} else {
		rep.notMeasured("service.race_best_sim_frac", "fraction", "fleet-small jobs are solo: there is no race")
	}
	rep.notMeasured("mapping.choose_calls", "count", "the fleet's mappers run inside the service; measured on figure4-sweep")
	rep.notMeasured("mapping.choose_ns_mean", "ns", "the fleet's mappers run inside the service; measured on figure4-sweep")
	return rep, nil
}

// simulationsRun counts the simulations a job ran: one for a solo job,
// one per attempt that started for a portfolio race.
func simulationsRun(j service.Job) int {
	if len(j.Attempts) == 0 {
		return 1
	}
	n := 0
	for _, a := range j.Attempts {
		if !a.StartedAt.IsZero() {
			n++
		}
	}
	return n
}

// winningMapper is the strategy whose result the job carries.
func winningMapper(o jobOutcome) string {
	if o.job.Winner != "" {
		return o.job.Winner
	}
	return o.spec.Mapper
}

// runCore re-runs a spec in process through core under one mapper.
func runCore(spec service.JobSpec, mapper string) (core.Result, error) {
	spec.Mapper, spec.Portfolio = mapper, nil
	cfg, arg, err := spec.Build()
	if err != nil {
		return core.Result{}, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return m.Run(arg)
}

// checkAgainstCore compares a fleet result with an in-process core run of
// the same spec, seed and winning mapper.
func checkAgainstCore(o jobOutcome) error {
	mapper := winningMapper(o)
	want, err := runCore(o.spec, mapper)
	if err != nil {
		return fmt.Errorf("job %s: %w", o.job.ID, err)
	}
	got := o.job.Result
	// The fleet's stats went through JSON; send core's the same way.
	data, err := json.Marshal(want.Stats)
	if err != nil {
		return err
	}
	var wantStats simulator.Stats
	if err := json.Unmarshal(data, &wantStats); err != nil {
		return err
	}
	if want.ComputationTime != got.ComputationTime || !reflect.DeepEqual(wantStats, got.Stats) {
		return fmt.Errorf("job %s (%s): fleet computation_time %d stats %+v, core %d %+v",
			o.job.ID, mapper, got.ComputationTime, got.Stats, want.ComputationTime, wantStats)
	}
	return nil
}
