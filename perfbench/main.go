// Command perfbench is the repository benchmark: it drives the LoCEC
// pipeline, the artifact store, the sharded read path and the WAL-backed
// write path through their public functions and HTTP endpoints, checks
// every output it measures, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload train-xgb --seed 1 --seconds 16 --trace 0
//
// Every workload reports the same metrics. With --trace 0 the result
// carries the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced run, whose spans are written under
// .bench_build/traces/ when the run ends. README.md records why each
// workload exists and which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// processStart anchors setup_s: package initialization runs before main.
var processStart = time.Now()

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir holds the run's files (artifacts, WAL); removed at exit.
	workDir string
	// tiny shrinks every input so the tests finish in seconds.
	tiny bool
	// corrupt, set by tests only, damages one measured output so the
	// correctness checks can be shown to fire.
	corrupt bool
	// conflict, set by tests only, makes the server reject every mutation
	// batch, so a run whose writes all fail can be shown to still report.
	conflict bool
	log      io.Writer
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	tr                *tracer

	mu       sync.Mutex // guards problems; load senders report concurrently
	problems []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a correctness violation; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(o options, r *report) error{
	"train-xgb":  func(o options, r *report) error { return runTrain(trainXGB, o, r) },
	"train-cnn":  func(o options, r *report) error { return runTrain(trainCNN, o, r) },
	"serve-read": runServeRead,
	"mutate":     runMutate,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: work, log: stderr}
	prov := provenance(root, *name, *seed)
	provJSON, _ := json.Marshal(prov) // a map of strings always encodes
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	res, tr, err := execute(*name, drive, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.writeFile(path, prov); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result. Check failures are
// printed to o.log and turn the result incorrect; an error means the run
// could not complete at all.
func execute(name string, drive func(options, *report) error, o options) (result, *tracer, error) {
	r := newReport()
	if o.trace {
		r.tr = newTracer()
	}
	if err := drive(o, r); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range r.problems {
		fmt.Fprintf(o.log, "perfbench: %s: CHECK FAILED: %s\n", name, p)
	}
	if r.attempted < 1 {
		return result{}, nil, fmt.Errorf("%s: no operation attempted", name)
	}
	return result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, r.tr, nil
}
