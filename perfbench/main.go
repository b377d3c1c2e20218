// Command perfbench is the repository's benchmark. It measures the shipped
// programs from outside: the batch cleaner through the public sqlclean
// facade in a child process, and the sqlcleand daemon as a child process
// driven by a separate load-generator process. The program under test only
// ever receives the generated inputs; the workload seed is an argument.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload clean_batch|ingest_bulk|ingest_mixed \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and traced (half the seconds each, so the tracing
// overhead shows), then an in-process pass that times each layer's public
// functions on the workload's own inputs, and prints the per-layer
// metrics. Human-readable lines come first; the last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report collects a run's numbers and checks, printing each as it comes.
type report struct {
	w         io.Writer
	metrics   map[string]Metric
	attempted int64
	failed    int64
	checksBad []string
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]Metric{}}
}

// metric records a number; samples < 0 means "not a sample statistic".
func (r *report) metric(name string, v float64, unit string, samples int) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
	if samples >= 0 {
		fmt.Fprintf(r.w, "metric %-40s %14.4f %-10s n=%d\n", name, v, unit, samples)
	} else {
		fmt.Fprintf(r.w, "metric %-40s %14.4f %s\n", name, v, unit)
	}
}

// info prints a number that is shown but not part of the JSON result.
func (r *report) info(name string, v float64, unit string, samples int) {
	fmt.Fprintf(r.w, "info   %-40s %14.4f %-10s n=%d\n", name, v, unit, samples)
}

// check records the outcome of a correctness or validity check. A failed
// check counts as one failed operation.
func (r *report) check(name string, ok bool, detail string) {
	r.attempted++
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failed++
		r.checksBad = append(r.checksBad, name)
	}
	fmt.Fprintf(r.w, "check  %-40s %s  %s\n", name, status, detail)
}

// ops adds operations (requests, repetitions) and how many of them failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) result(keep []string) Result {
	res := Result{
		Correct:   len(r.checksBad) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]Metric{},
	}
	for _, k := range keep {
		if m, ok := r.metrics[k]; ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			res.Metrics[k] = m
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

// endToEnd are the metrics every workload reports with --trace 0; their
// meaning on each workload is documented in README.md. Latencies are
// printed as info lines only: on a shared 2-core VM their run-to-run
// spread is wider than any bound a metric may carry.
var endToEnd = []string{"setup_s", "entries_per_s", "peak_rss_mb"}

// env is what every workload needs from the command line.
type env struct {
	root    string // checkout root (the working directory)
	binDir  string // built programs
	workDir string // this run's working directory, removed at exit
	seed    int64
	seconds float64
	out     io.Writer
}

// workloadFunc runs one workload end to end and reports its metrics.
type workloadFunc func(e *env, rep *report, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"clean_batch":  runCleanBatch,
	"ingest_bulk":  runIngestBulk,
	"ingest_mixed": runIngestMixed,
}

func main() {
	child := flag.String("child", "", "internal: run as the clean or loadgen child process")
	spec := flag.String("spec", "", "internal: child input file")
	resultPath := flag.String("result", "", "internal: child result file")
	workload := flag.String("workload", "", "clean_batch | ingest_bulk | ingest_mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from a traced run")
	binDir := flag.String("bin", ".bench_build/bin", "directory of the built sqlcleand and sqlclean")
	flag.Parse()

	switch *child {
	case "clean":
		exitOn(childClean(*spec, *resultPath))
		return
	case "loadgen":
		exitOn(childLoadgen(*spec, *resultPath))
		return
	case "":
	default:
		exitOn(fmt.Errorf("unknown child mode %q", *child))
	}

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		exitOn(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", ")))
	}
	if *seconds <= 0 {
		exitOn(fmt.Errorf("--seconds must be positive"))
	}
	killChildrenOnSignal()
	root, err := os.Getwd()
	exitOn(err)
	bin, err := filepath.Abs(*binDir)
	exitOn(err)
	for _, p := range []string{"sqlcleand", "sqlclean"} {
		if _, err := os.Stat(filepath.Join(bin, p)); err != nil {
			exitOn(fmt.Errorf("missing built program: %w", err))
		}
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+*workload+"-")
	exitOn(err)
	e := &env{root: root, binDir: bin, workDir: work, seed: *seed, seconds: *seconds, out: os.Stdout}
	rep := newReport(os.Stdout)
	fmt.Fprintf(os.Stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	if *trace == 1 {
		err = runTraced(e, rep, *workload, run)
	} else {
		_, err = run(e, rep, false)
	}
	os.RemoveAll(work)
	exitOn(err)

	keep := endToEnd
	if *trace == 1 {
		keep = perLayerNames()
	}
	res := rep.result(keep)
	rep.info("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", int(res.Attempted))
	if missing := missingMetrics(res, keep); len(missing) > 0 {
		exitOn(fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", ")))
	}
	if len(rep.checksBad) > 0 {
		fmt.Fprintf(os.Stdout, "failed checks: %s\n", strings.Join(rep.checksBad, ", "))
	}
	blob, err := json.Marshal(res)
	exitOn(err)
	fmt.Fprintln(os.Stdout, string(blob))
}

// children tracks the running child processes, so an interrupted
// benchmark still stops every process it started.
var children = struct {
	mu   sync.Mutex
	live map[*os.Process]bool
}{live: map[*os.Process]bool{}}

func track(p *os.Process) {
	children.mu.Lock()
	defer children.mu.Unlock()
	children.live[p] = true
}

func untrack(p *os.Process) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.live, p)
}

// killChildrenOnSignal kills every tracked child and exits when the
// benchmark is interrupted.
func killChildrenOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		children.mu.Lock()
		for p := range children.live {
			_ = p.Kill()
			_, _ = p.Wait()
		}
		children.mu.Unlock()
		exitOn(fmt.Errorf("interrupted by %v", sig))
	}()
}

func missingMetrics(res Result, keep []string) []string {
	var missing []string
	for _, k := range keep {
		if _, ok := res.Metrics[k]; !ok {
			missing = append(missing, k)
		}
	}
	return missing
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runChild runs this program as a child process in the given mode, passing
// spec as a file and decoding its result file into out.
func runChild(e *env, mode string, spec, out any) error {
	specPath := filepath.Join(e.workDir, mode+"-spec.json")
	resultPath := filepath.Join(e.workDir, mode+"-result.json")
	if err := writeJSON(specPath, spec); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child", mode, "-spec", specPath, "-result", resultPath)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s child: %w", mode, err)
	}
	track(cmd.Process)
	err = cmd.Wait()
	untrack(cmd.Process)
	if err != nil {
		return fmt.Errorf("%s child: %w", mode, err)
	}
	return readJSON(resultPath, out)
}
