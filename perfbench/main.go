// Command perfbench is the repository benchmark. It runs one workload per
// invocation and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict, its op counts and its
// metrics: the end-to-end metrics by default, the per-layer metrics with
// -trace 1. The line before it is a JSON record of the host, the run and
// the sample counts behind every percentile.
//
//	bash perfbench/run.sh --workload fleet-small --seed 1 --seconds 30 --trace 0
//
// Workloads: fleet-small, fleet-portfolio and figure4-sweep (see
// README.md). The process exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: both metric sets (the caller
// prints the one the run asked for) plus the record.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// record holds workload-specific facts: sample counts, warm-up jobs,
	// check outcomes, and the per-layer metrics that could not be measured
	// on this workload, with the reason.
	record map[string]any
	// failures keeps the first few failure messages for the record.
	failures []string
}

func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed ops under one message.
func (r *report) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// notMeasured reports a per-layer metric as 0 and names why in the record.
func (r *report) notMeasured(name, unit, why string) {
	r.perLayer[name] = metric{0, unit}
	nm, _ := r.record["not_measured"].(map[string]string)
	if nm == nil {
		nm = map[string]string{}
		r.record["not_measured"] = nm
	}
	nm[name] = why
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		record:   map[string]any{},
	}
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root is the checkout root; scratch files go under root/.bench_build.
	root string
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "fleet-small", "fleet-small | fleet-portfolio | figure4-sweep")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "checkout root")
	updateRef := flag.Bool("update-reference", false, "figure4-sweep: rewrite the stored reference points from this run")
	flag.Parse()
	opt.trace = trace == 1
	if opt.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	var rep *report
	var err error
	switch opt.workload {
	case "fleet-small", "fleet-portfolio":
		rep, err = runFleet(opt)
	case "figure4-sweep":
		rep, err = runFigure4(opt, *updateRef)
	default:
		err = fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err != nil {
		fatal(err)
	}

	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd,
	}
	if opt.trace {
		res.Metrics = rep.perLayer
		rep.record["traced_end_to_end"] = rep.endToEnd
	}
	rec := rep.record
	rec["workload"] = opt.workload
	rec["seed"] = opt.seed
	rec["seconds"] = opt.seconds
	rec["trace"] = opt.trace
	rec["num_cpu"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["go_version"] = runtime.Version()
	rec["git_commit"] = gitCommit(opt.root)
	rec["attempted"] = rep.attempted
	rec["failed"] = rep.failed
	if len(rep.failures) > 0 {
		rec["failures"] = rep.failures
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fatal(err)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// scratchDir returns a fresh directory for this process under the
// checkout's build directory.
func scratchDir(root, name string) (string, error) {
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout without .git reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
