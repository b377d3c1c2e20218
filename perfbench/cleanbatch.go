package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"sqlclean"
)

// cleanSpec is the clean child's input.
type cleanSpec struct {
	Input   string  `json:"input"`
	OutDir  string  `json:"out_dir"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
}

// cleanDigests identify one repetition's outputs.
type cleanDigests struct {
	Clean   string `json:"clean"`
	Removal string `json:"removal"`
	Report  string `json:"report"`
}

type cleanRep struct {
	CleanNS int64        `json:"clean_ns"`
	WriteNS int64        `json:"write_ns"`
	PeakKiB int64        `json:"peak_kib"` // VmHWM over this repetition
	Digests cleanDigests `json:"digests"`
}

// cleanResult is the clean child's output.
type cleanResult struct {
	Entries   int        `json:"entries"`
	SetupNS   []int64    `json:"setup_ns"`
	Reps      []cleanRep `json:"reps"`
	CPUNS     int64      `json:"cpu_ns"` // over the repetitions
	WallNS    int64      `json:"wall_ns"`
	GCRuns    uint32     `json:"gc_runs"`
	GCPauseNS uint64     `json:"gc_pause_ns"`
	Spans     []Span     `json:"spans,omitempty"`
}

// cleanSetups is how many times the clean child reads its input;
// setup_s is the median.
const cleanSetups = 9

// cleanWarmups is how many leading repetitions are checked but not timed:
// the first Clean after the reads grows the heap and runs measurably
// slower than the rest.
const cleanWarmups = 1

// cleanConfig is the §6.9 operating point at the default worker count.
func cleanConfig(workers int) sqlclean.Config {
	return sqlclean.Config{Workers: workers, ClusterThreshold: clusterThreshold}
}

// reportDigest hashes the report fields a run must reproduce. Wall-clock
// fields and the grid's per-run work counters (which legitimately depend
// on worker scheduling) are zeroed; ScanComparisons is worker-invariant
// and stays.
func reportDigest(r sqlclean.Report) string {
	r.Duration = 0
	r.Stages = sqlclean.StageTiming{}
	r.ClusterWork.Comparisons = 0
	r.ClusterWork.CellsProbed = 0
	blob, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return sha256Hex(blob)
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func logDigest(l sqlclean.Log) string {
	var buf bytes.Buffer
	_ = sqlclean.WriteLogTSV(&buf, l) // a bytes.Buffer write cannot fail
	return sha256Hex(buf.Bytes())
}

func fileDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return sha256Hex(b), nil
}

// checkCleanDigests counts the repetitions whose outputs differ from the
// workers=1 reference.
func checkCleanDigests(ref cleanDigests, reps []cleanRep) (failed int, detail string) {
	for i, r := range reps {
		if r.Digests != ref {
			failed++
			if detail == "" {
				detail = fmt.Sprintf("repetition %d differs from the workers=1 reference", i)
			}
		}
	}
	return failed, detail
}

// prepareClean writes the clean_batch input and computes the workers=1
// reference digests, outside every timed interval.
func prepareClean(e *env, scale float64) (input string, ref cleanDigests, n int, err error) {
	input = filepath.Join(e.workDir, "input.tsv")
	f, err := os.Create(input)
	if err != nil {
		return "", ref, 0, err
	}
	if err := sqlclean.WriteLogTSV(f, genMerged(e.seed, scale, cleanChunkScale)); err != nil {
		f.Close()
		return "", ref, 0, err
	}
	if err := f.Close(); err != nil {
		return "", ref, 0, err
	}
	// The reference reads the same bytes the child reads.
	in, err := os.Open(input)
	if err != nil {
		return "", ref, 0, err
	}
	l, err := sqlclean.ReadLogTSV(bufio.NewReader(in))
	in.Close()
	if err != nil {
		return "", ref, 0, err
	}
	res, err := sqlclean.Clean(l, cleanConfig(1))
	if err != nil {
		return "", ref, 0, err
	}
	ref = cleanDigests{Clean: logDigest(res.Clean), Removal: logDigest(res.Removal), Report: reportDigest(res.Report)}
	n = len(l)
	// The reference's heap would otherwise sit beside the child's.
	l, res = nil, nil
	debug.FreeOSMemory()
	return input, ref, n, nil
}

// runCleanBatch is the clean_batch workload: the paper's batch pipeline
// through the public facade, in a child process of its own.
func runCleanBatch(e *env, rep *report, traced bool) (*outcome, error) {
	input, ref, n, err := prepareClean(e, size.cleanScale)
	if err != nil {
		return nil, fmt.Errorf("prepare clean_batch: %w", err)
	}
	fmt.Fprintf(e.out, "clean_batch: %d input entries, reference digests computed at workers=1\n", n)
	outDir := filepath.Join(e.workDir, "clean-out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var res cleanResult
	if err := runChild(e, "clean", cleanSpec{Input: input, OutDir: outDir, Seconds: e.seconds, Trace: traced}, &res); err != nil {
		return nil, err
	}
	if len(res.Reps) <= cleanWarmups || len(res.SetupNS) == 0 {
		return nil, fmt.Errorf("clean child reported no timed repetitions")
	}
	failed, detail := checkCleanDigests(ref, res.Reps)
	rep.ops(int64(len(res.Reps)), int64(failed))
	rep.check("clean_batch.outputs_match_workers1", failed == 0,
		fmt.Sprintf("%d/%d repetitions byte-identical (clean log, removal log, report) %s", len(res.Reps)-failed, len(res.Reps), detail))
	timed := res.Reps[cleanWarmups:]

	setup := nsToMS(res.SetupNS)
	rep.metric("setup_s", median(setup)/1000, "s", len(setup))
	var rates, lat []float64
	for _, r := range timed {
		d := float64(r.CleanNS + r.WriteNS)
		rates = append(rates, float64(res.Entries)/(d/1e9))
		lat = append(lat, d/1e6)
	}
	rate := median(rates)
	rep.metric("entries_per_s", rate, "entries/s", len(rates))
	rep.info("clean_entries_per_s", rate, "entries/s", len(rates))
	// Every entry of a repetition waits for the whole repetition, so the
	// per-entry latency distribution puts equal mass on each repetition:
	// its p50 is the median repetition and its p99 the slowest one.
	rep.info("latency_p50_ms", median(lat), "ms", len(lat)*res.Entries)
	rep.info("latency_p99_ms", quantile(lat, 1), "ms", len(lat)*res.Entries)
	var peaks []float64
	for _, r := range timed {
		peaks = append(peaks, float64(r.PeakKiB)/1024)
	}
	rep.metric("peak_rss_mb", median(peaks), "MiB", len(peaks))

	return &outcome{
		entries:   float64(res.Entries * len(res.Reps)),
		rate:      rate,
		spans:     res.Spans,
		gcRuns:    float64(res.GCRuns),
		gcPauseMS: float64(res.GCPauseNS) / 1e6,
		cpuMS:     float64(res.CPUNS) / 1e6,
		wallMS:    float64(res.WallNS) / 1e6,
	}, nil
}

// childClean is the clean child process: set-up is reading the input log;
// each repetition is Clean plus writing the clean and removal logs, with a
// fresh parser per repetition as the CLI has.
func childClean(specPath, resultPath string) error {
	var spec cleanSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var tr *tracer
	if spec.Trace {
		tr = newTracer("clean")
	}
	var res cleanResult
	var l sqlclean.Log
	for i := 0; i < cleanSetups; i++ {
		l = nil
		runtime.GC()
		f, err := os.Open(spec.Input)
		if err != nil {
			return err
		}
		id := tr.start("logmodel.ReadTSV", 0, 0)
		t0 := time.Now()
		l, err = sqlclean.ReadLogTSV(bufio.NewReader(f))
		res.SetupNS = append(res.SetupNS, int64(time.Since(t0)))
		tr.end(id)
		f.Close()
		if err != nil {
			return err
		}
	}
	res.Entries = len(l)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	repStart, cpu0 := time.Now(), cpuNow()
	deadline := time.Now().Add(time.Duration(spec.Seconds * float64(time.Second)))
	for len(res.Reps) < cleanWarmups+2 || time.Now().Before(deadline) {
		runtime.GC() // each repetition starts from the same heap
		// Reset VmHWM, so each repetition reports its own peak.
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported: the peak stays cumulative
		root := tr.start("bench.repetition", 0, int64(len(res.Reps)+1))
		id := tr.start("core.Clean", root, 0)
		t0 := time.Now()
		out, err := sqlclean.Clean(l, cleanConfig(0))
		if err != nil {
			return err
		}
		t1 := time.Now()
		tr.end(id)
		id = tr.start("logmodel.WriteTSV", root, 0)
		cleanPath := filepath.Join(spec.OutDir, "clean.tsv")
		removalPath := filepath.Join(spec.OutDir, "removal.tsv")
		if err := writeLogFile(cleanPath, out.Clean); err != nil {
			return err
		}
		if err := writeLogFile(removalPath, out.Removal); err != nil {
			return err
		}
		t2 := time.Now()
		tr.end(id)
		tr.end(root)
		r := cleanRep{CleanNS: int64(t1.Sub(t0)), WriteNS: int64(t2.Sub(t1))}
		r.PeakKiB, _ = procStatus(os.Getpid(), "VmHWM")
		if r.Digests.Clean, err = fileDigest(cleanPath); err != nil {
			return err
		}
		if r.Digests.Removal, err = fileDigest(removalPath); err != nil {
			return err
		}
		r.Digests.Report = reportDigest(out.Report)
		res.Reps = append(res.Reps, r)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.GCRuns = ms1.NumGC - ms0.NumGC
	res.GCPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	res.CPUNS = cpuNow() - cpu0
	res.WallNS = int64(time.Since(repStart))
	res.Spans = tr.spans()
	return writeJSON(resultPath, res)
}

func writeLogFile(path string, l sqlclean.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sqlclean.WriteLogTSV(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
