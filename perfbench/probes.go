package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hypersolve/internal/service"
	"hypersolve/internal/tracelog"
)

// probes times HTTP handlers the benchmark mounts around the fleet's own:
// submits on the router and on each primary (matched by the trace ID the
// router forwards) and replication feed pages served by each primary. A
// nil *probes mounts nothing; a live one records only while on is set.
type probes struct {
	on           atomic.Bool
	mu           sync.Mutex
	routerSubmit map[string]float64 // trace ID → router handler ms
	shardSubmit  map[string]float64 // trace ID → primary handler ms
	feedMs       []float64
}

func newProbes() *probes {
	return &probes{routerSubmit: map[string]float64{}, shardSubmit: map[string]float64{}}
}

func isSubmit(r *http.Request) bool { return r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" }

func (p *probes) routerHandler(h http.Handler) http.Handler {
	return p.timed(h, func(r *http.Request, ms float64) {
		if isSubmit(r) {
			p.routerSubmit[tracelog.FromRequest(r).TraceID] = ms
		}
	})
}

func (p *probes) shardHandler(h http.Handler) http.Handler {
	return p.timed(h, func(r *http.Request, ms float64) {
		switch {
		case isSubmit(r):
			p.shardSubmit[tracelog.FromRequest(r).TraceID] = ms
		case r.Method == http.MethodGet && r.URL.Path == "/v1/replication/journal":
			p.feedMs = append(p.feedMs, ms)
		}
	})
}

// timed wraps h, passing each request's handler time to record (under
// p.mu) while the probes are on.
func (p *probes) timed(h http.Handler, record func(r *http.Request, ms float64)) http.Handler {
	if p == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(t0))
		p.mu.Lock()
		record(r, d)
		p.mu.Unlock()
	})
}

// hopMs returns, per submit seen on both sides, the router's handler time
// minus the primary's.
func (p *probes) hopMs() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hops []float64
	for id, outer := range p.routerSubmit {
		if inner, ok := p.shardSubmit[id]; ok {
			hops = append(hops, outer-inner)
		}
	}
	return hops
}

// lagSampler polls every standby's replication status during the window.
type lagSampler struct {
	quit, done chan struct{}
	lags       []float64
}

func (f *fleet) sampleLag(ctx context.Context) *lagSampler {
	ls := &lagSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ls.quit:
				return
			case <-tick.C:
			}
			for _, u := range f.standbyURLs {
				c := service.Client{Base: u, HTTP: f.measure}
				var st service.ReplicationStatus
				if c.GetJSON(ctx, "/v1/replication/status", &st) == nil {
					ls.lags = append(ls.lags, float64(st.Lag))
				}
			}
		}
	}()
	return ls
}

func (ls *lagSampler) stop() {
	close(ls.quit)
	<-ls.done
}

// addFleetLayers reports the cluster, client, service, store and
// replication layers of a traced fleet run. Job stage times come from each
// completed job's persisted trace, read through the router.
func addFleetLayers(ctx context.Context, rep *report, f *fleet, pr *probes, lag *lagSampler, completed []jobOutcome) error {
	hops := pr.hopMs()
	rep.perLayer["cluster.hop_ms_p50"] = metric{median(hops), "ms"}
	rep.record["hop_samples"] = len(hops)

	var submit, wait, get []float64
	for _, o := range completed {
		submit = append(submit, o.submitMs)
		wait = append(wait, o.waitMs)
		get = append(get, o.getMs)
	}
	rep.perLayer["client.submit_ms_p50"] = metric{median(submit), "ms"}
	rep.perLayer["client.wait_ms_p50"] = metric{median(wait), "ms"}
	rep.perLayer["client.get_ms_p50"] = metric{median(get), "ms"}

	stages := map[string][]float64{}
	rc := service.Client{Base: f.routerURL, HTTP: f.measure}
	for _, o := range completed {
		jt, err := rc.Trace(ctx, o.job.ID)
		if err != nil {
			return err
		}
		for _, s := range jt.Spans {
			stages[s.Name] = append(stages[s.Name], s.DurationMs)
		}
	}
	for _, st := range []string{"compile", "admission", "queue", "run"} {
		rep.perLayer["service."+st+"_ms_p50"] = metric{median(stages[st]), "ms"}
	}
	journal := stages["journal"]
	j50, _ := percentile(journal, 50)
	j99, beyond := percentile(journal, 99)
	rep.perLayer["store.journal_ms_p50"] = metric{j50, "ms"}
	rep.perLayer["store.journal_ms_p99"] = metric{j99, "ms"}
	rep.record["trace_samples"] = len(stages["run"])
	rep.record["journal_p99_samples_beyond"] = beyond

	attempts, winnerSteps, allSteps := 0.0, 0.0, 0.0
	for _, o := range completed {
		if len(o.job.Attempts) == 0 {
			attempts++
			steps := float64(o.job.Result.Stats.Steps)
			winnerSteps += steps
			allSteps += steps
			continue
		}
		attempts += float64(len(o.job.Attempts))
		for _, a := range o.job.Attempts {
			allSteps += float64(a.Steps)
			if a.Winner {
				winnerSteps += float64(a.Steps)
			}
		}
	}
	n := float64(max(len(completed), 1))
	rep.perLayer["service.attempts_per_job"] = metric{attempts / n, "count"}
	frac := 0.0
	if allSteps > 0 {
		frac = winnerSteps / allSteps
	}
	rep.perLayer["service.race_useful_steps_frac"] = metric{frac, "fraction"}
	rep.perLayer["simulator.steps"] = metric{allSteps, "count"}

	lag50, _ := percentile(lag.lags, 50)
	lagMax, _ := percentile(lag.lags, 100)
	rep.perLayer["replication.lag_records_p50"] = metric{lag50, "count"}
	rep.perLayer["replication.lag_records_max"] = metric{lagMax, "count"}
	rep.record["lag_samples"] = len(lag.lags)
	pr.mu.Lock()
	feed := append([]float64(nil), pr.feedMs...)
	pr.mu.Unlock()
	rep.perLayer["replication.feed_ms_p50"] = metric{median(feed), "ms"}
	rep.record["feed_samples"] = len(feed)
	return nil
}

// addRaceQuality re-runs the first raceSample successful races under every
// strategy through core and reports the share whose winner had the lowest
// simulated computation time (ties count as best).
func addRaceQuality(rep *report, outs []jobOutcome, shape jobShape) {
	best, judged := 0, 0
	for _, o := range outs {
		if judged == raceSample {
			break
		}
		if o.err != nil {
			continue
		}
		judged++
		times := map[string]int64{}
		for _, strat := range shape.portfolio {
			res, err := runCore(o.spec, strat)
			if err != nil {
				rep.fail("race re-run %s under %s: %v", o.job.ID, strat, err)
				continue
			}
			times[strat] = res.ComputationTime
		}
		win, ok := times[o.job.Winner]
		isBest := ok
		for _, t := range times {
			if t < win {
				isBest = false
			}
		}
		if isBest {
			best++
		}
	}
	frac := 0.0
	if judged > 0 {
		frac = float64(best) / float64(judged)
	}
	rep.perLayer["service.race_best_sim_frac"] = metric{frac, "fraction"}
	rep.record["race_sample"] = judged
}
