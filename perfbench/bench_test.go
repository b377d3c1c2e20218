package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as the clean or loadgen child
// (os.Executable is the test binary under go test).
func TestMain(m *testing.M) {
	if len(os.Args) == 7 && os.Args[1] == "-child" {
		switch os.Args[2] {
		case "clean":
			exitOn(childClean(os.Args[4], os.Args[6]))
		case "loadgen":
			exitOn(childLoadgen(os.Args[4], os.Args[6]))
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny keeps every workload's shape at a size a test can afford.
var tiny = sizes{cleanScale: 0.3, bulkRoundEntries: 5000, bulkTailScale: 0.2, mixedLogScale: 0.02, mixedHistScale: 0.3, layerEntries: 3000}

func buildPrograms(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/sqlcleand", "./cmd/sqlclean")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build programs: %v\n%s", err, out)
	}
	return dir
}

func tinyEnv(t *testing.T, bin string, seconds float64) *env {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	return &env{root: root, binDir: bin, workDir: t.TempDir(), seed: 3, seconds: seconds, out: io.Discard}
}

// TestWorkloadsEmitEveryMetric runs a tiny traced pass of each workload —
// its untraced and traced end-to-end phases and the layer pass — and
// asserts that every end-to-end and per-layer metric is emitted with its
// unit and that every check passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon and the batch cleaner as child processes")
	}
	saved := size
	size = tiny
	defer func() { size = saved }()
	bin := buildPrograms(t)
	e2eUnits := map[string]string{"setup_s": "s", "entries_per_s": "entries/s", "peak_rss_mb": "MiB"}
	if len(e2eUnits) != len(endToEnd) {
		t.Fatalf("end-to-end metric list changed: %v", endToEnd)
	}
	for _, name := range []string{"clean_batch", "ingest_bulk", "ingest_mixed"} {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			e := tinyEnv(t, bin, 4)
			e.out = &out
			rep := newReport(&out)
			if err := runTraced(e, rep, name, workloads[name]); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, m := range endToEnd {
				if got, ok := rep.metrics[m]; !ok || got.Unit != e2eUnits[m] {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m, got, e2eUnits[m])
				}
			}
			res := rep.result(perLayerNames())
			if missing := missingMetrics(res, perLayerNames()); len(missing) > 0 {
				t.Errorf("per-layer metrics missing: %v", missing)
			}
			for _, m := range perLayer {
				if got := res.Metrics[m.name]; got.Unit != m.unit {
					t.Errorf("per-layer metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
				}
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("checks failed: %v\n%s", rep.checksBad, out.String())
			}
		})
	}
}

// TestCorruptedDigestFailsCheck corrupts one repetition's output digest
// and expects the clean_batch correctness check to fail the run.
func TestCorruptedDigestFailsCheck(t *testing.T) {
	e := tinyEnv(t, "", 1)
	_, ref, _, err := prepareClean(e, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	good := cleanRep{Digests: ref}
	if n, _ := checkCleanDigests(ref, []cleanRep{good, good}); n != 0 {
		t.Fatalf("identical digests counted %d failures", n)
	}
	bad := good
	flip := []byte(bad.Digests.Clean)
	flip[0] ^= 1
	bad.Digests.Clean = string(flip)
	n, detail := checkCleanDigests(ref, []cleanRep{good, bad, good})
	if n != 1 || !strings.Contains(detail, "repetition 1") {
		t.Fatalf("corrupted digest: %d failures (%q), want 1 at repetition 1", n, detail)
	}
	rep := newReport(io.Discard)
	rep.ops(3, int64(n))
	rep.check("clean_batch.outputs_match_workers1", n == 0, detail)
	if res := rep.result(endToEnd); res.Correct || res.Failed != 2 {
		t.Fatalf("result with a corrupted digest: correct=%v failed=%d, want false and 2", res.Correct, res.Failed)
	}
}
