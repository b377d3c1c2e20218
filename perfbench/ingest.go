package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"sqlclean"
	"sqlclean/internal/colstore"
	"sqlclean/internal/journal"
	"sqlclean/internal/server"
)

// daemonSetups is how many times an ingest_mixed run starts the daemon on
// a fresh copy of the prepared data directory; setup_s is the median.
const daemonSetups = 9

// outcome is what a measured run hands to the traced run's layer pass.
type outcome struct {
	entries    float64 // entries accepted, or cleaned over all repetitions
	rate       float64 // entries_per_s
	spans      []Span
	gcRuns     float64
	gcPauseMS  float64
	cpuMS      float64 // measured process's CPU over the measured phase
	wallMS     float64
	deltas     map[string]float64 // daemon /metrics deltas over the load
	lateP99MS  float64
	loadgenCPU float64
	// pristine is the prepared data directory; historyQuery the /history
	// request the workload reads (empty when it has no blocks).
	pristine     string
	historyQuery string
}

// prepared describes a daemon data directory built before the run.
type prepared struct {
	restoredOut int            // entries_out the restored snapshot carries
	history     *historyExpect // /history answer over the pre-built blocks
	streams     []string       // per-client pre-encoded entry lines
}

type ingestWorkload struct {
	name    string
	flags   []string
	prepare func(e *env, dir string) (prepared, error)
	// guard asserts the parse-cache regime the workload is defined by.
	guard func(rep *report, hitRatio float64)
	// starts is how many times a round starts the daemon (setup_s
	// samples); the last start carries the load. With repeat, rounds run
	// until the run's seconds are spent, and at least minRounds of them.
	starts    int
	repeat    bool
	minRounds int
}

func runIngestBulk(e *env, rep *report, traced bool) (*outcome, error) {
	return runIngest(e, rep, traced, ingestWorkload{
		name: "ingest_bulk",
		// The queue bound holds a whole run's backlog, so HEAD refuses
		// nothing and any 429 is a fault.
		flags:   []string{"-fsync", "always", "-queue", "65536"},
		prepare: prepareBulk,
		// Each round is one daemon lifetime loading the same fixed work,
		// so memory stays bounded and every round is comparable.
		starts:    1,
		repeat:    true,
		minRounds: 3,
		guard: func(rep *report, hit float64) {
			rep.check("validity.parse_cache_hit_ratio_below_0.5", hit < 0.5, fmt.Sprintf("%.3f", hit))
		},
	})
}

func runIngestMixed(e *env, rep *report, traced bool) (*outcome, error) {
	return runIngest(e, rep, traced, ingestWorkload{
		name:    "ingest_mixed",
		flags:   []string{"-fsync", "always", "-retain", "-snapshot-interval", "2s"},
		prepare: prepareMixed,
		// One round: the load runs at a fixed rate for the run's seconds.
		starts:    daemonSetups,
		minRounds: 1,
		guard: func(rep *report, hit float64) {
			rep.check("validity.parse_cache_hit_ratio_above_0.9", hit > 0.9, fmt.Sprintf("%.3f", hit))
		},
	})
}

// writeJournal frames entries into a journal directory the way the daemon
// does, numbering them from seq0.
func writeJournal(dir string, l sqlclean.Log, seq0 int64) error {
	w, err := journal.Open(journal.Options{Dir: dir, Policy: journal.FsyncNever})
	if err != nil {
		return err
	}
	for i := 0; i < len(l); i += 1000 {
		end := min(i+1000, len(l))
		batch := append(sqlclean.Log(nil), l[i:end]...)
		for k := range batch {
			batch[k].Seq = seq0 + int64(i+k)
		}
		if _, _, err := w.AppendBatch(batch); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Commit(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// prepareBulk writes a journal tail, so the daemon's start-up is crash
// recovery: a replay of every frame. It also writes each client's share of
// the fresh stream once, pre-encoded, for every round's load generator.
func prepareBulk(e *env, dir string) (prepared, error) {
	if err := writeJournal(dir, genMerged(subSeed(e.seed, 1), size.bulkTailScale, bulkChunkScale), 0); err != nil {
		return prepared{}, err
	}
	var p prepared
	for i, part := range partition(freshStream(e.seed, size.bulkRoundEntries), bulkClients, e.seed) {
		path := filepath.Join(e.workDir, fmt.Sprintf("bulk-client%d.lines", i))
		if err := os.WriteFile(path, bytes.Join(encodeLog(part), nil), 0o644); err != nil {
			return p, err
		}
		p.streams = append(p.streams, path)
	}
	return p, nil
}

// prepareMixed builds a data directory with history in columnar blocks
// (written by `sqlclean -compact`), an engine snapshot, and a journal tail
// after it. The three parts are consecutive in event time.
func prepareMixed(e *env, dir string) (prepared, error) {
	hist := genMerged(subSeed(e.seed, 2), size.mixedHistScale, bulkChunkScale)
	n := len(hist)
	p0, p1, p2 := hist[:n*4/10], hist[n*4/10:n*7/10], hist[n*7/10:]

	walDir := filepath.Join(e.workDir, "history-wal")
	if err := writeJournal(walDir, p0, 0); err != nil {
		return prepared{}, err
	}
	blocks := filepath.Join(dir, "colstore")
	cmd := exec.Command(filepath.Join(e.binDir, "sqlclean"), "-compact", "-data-dir", walDir, "-retain-dir", blocks)
	if out, err := cmd.CombinedOutput(); err != nil {
		return prepared{}, fmt.Errorf("sqlclean -compact: %v: %s", err, out)
	}
	os.RemoveAll(walDir)

	// The snapshot comes from the daemon's own server package, fed over
	// its HTTP handler and closed gracefully.
	srv, err := server.New(server.Config{DataDir: dir, Fsync: journal.FsyncNever, SnapshotInterval: -1})
	if err != nil {
		return prepared{}, err
	}
	h := srv.Handler()
	for i := 0; i < len(p1); i += 500 {
		var body bytes.Buffer
		if err := sqlclean.WriteLogTSV(&body, p1[i:min(i+500, len(p1))]); err != nil {
			return prepared{}, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?format=tsv", &body))
		if rec.Code != http.StatusOK {
			return prepared{}, fmt.Errorf("prepare snapshot: ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return prepared{}, err
	}
	restoredOut := srv.Engine().Stats().Out
	if err := writeJournal(dir, p2, int64(len(p1))); err != nil {
		return prepared{}, err
	}

	hx, err := expectHistory(blocks, p0[0].Time, p0[len(p0)-1].Time, historyStep)
	if err != nil {
		return prepared{}, err
	}
	return prepared{restoredOut: restoredOut, history: hx}, nil
}

// historyStep is the /history bucket width: the pre-built blocks span
// about two years of event time, so this is ~25 windows.
const historyStep = 720 * time.Hour

// historyExpect is the /history answer the benchmark computes itself from
// the pre-built blocks with colstore.Reader.Scan.
type historyExpect struct {
	Query   string `json:"query"`
	Entries int    `json:"entries"`
	Windows string `json:"windows"` // "unix_start:count" pairs
}

func expectHistory(blockDir string, from, to time.Time, step time.Duration) (*historyExpect, error) {
	counts := map[int64]int{}
	var idx []int64
	total := 0
	err := colstore.NewReader(blockDir).Scan(colstore.ScanOptions{From: from, To: to}, func(_ uint64, e sqlclean.Entry) error {
		w := int64(e.Time.Sub(from) / step)
		if counts[w] == 0 {
			idx = append(idx, w)
		}
		counts[w]++
		total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(idx)
	var sig bytes.Buffer
	for _, w := range idx {
		fmt.Fprintf(&sig, "%d:%d ", from.Add(time.Duration(w)*step).Unix(), counts[w])
	}
	q := fmt.Sprintf("/history?from=%s&to=%s&step=%s",
		from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano), step)
	return &historyExpect{Query: q, Entries: total, Windows: sig.String()}, nil
}

// round is one daemon lifetime: its start-ups, the load, and the drain.
type round struct {
	setups     []float64
	lg         loadResult
	peakMiB    float64
	m0, m1     map[string]float64
	h0, h1     healthPayload
	drained    map[string]float64
	cleanLines int
	cpuMS      float64
	wallMS     float64
}

// runRound starts the daemon `starts` times on fresh copies of the
// prepared data directory (all but the last are killed, as a crash would),
// drives the load against the last one, and stops it gracefully.
func runRound(e *env, wl ingestWorkload, r int, pristine string, prep prepared, traced bool) (*round, error) {
	var rd round
	var d *daemon
	var cleanPath string
	for k := 0; k < wl.starts; k++ {
		tag := fmt.Sprintf("%d-%d", r, k)
		dir := filepath.Join(e.workDir, "data-"+tag)
		if err := copyDir(pristine, dir); err != nil {
			return nil, err
		}
		cleanPath = filepath.Join(e.workDir, "clean-"+tag+".tsv")
		dk, dt, err := startDaemon(e, dir, cleanPath, filepath.Join(e.workDir, "daemon-"+tag+".log"), wl.flags)
		if err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, dt.Seconds())
		if k < wl.starts-1 {
			dk.kill()
			os.RemoveAll(dir)
			continue
		}
		d = dk
		defer os.RemoveAll(dir)
	}
	defer d.kill()

	var err error
	if rd.h0, err = getHealth(healthClient, d.base); err != nil {
		return nil, err
	}
	if rd.m0, err = scrape(d.base); err != nil {
		return nil, err
	}
	cpu0, t0 := procCPU(d.pid()), time.Now()
	spec := loadSpec{Workload: wl.name, Seed: e.seed, Seconds: e.seconds, Base: d.base, In0: rd.h0.EntriesIn,
		History: prep.history, Streams: prep.streams, LogScale: size.mixedLogScale, Trace: traced}
	if err := runChild(e, "loadgen", spec, &rd.lg); err != nil {
		return nil, err
	}
	rd.cpuMS, rd.wallMS = float64(procCPU(d.pid())-cpu0)/1e6, float64(time.Since(t0))/1e6
	if rd.m1, err = scrape(d.base); err != nil {
		return nil, err
	}
	if rd.h1, err = getHealth(healthClient, d.base); err != nil {
		return nil, err
	}
	rd.peakMiB = peakRSSMiB(d.pid())
	if rd.drained, err = d.stop(); err != nil {
		return nil, err
	}
	if rd.cleanLines, err = countLines(cleanPath); err != nil {
		return nil, err
	}
	return &rd, nil
}

// checkRound records a round's correctness and validity checks.
func checkRound(e *env, rep *report, wl ingestWorkload, prep prepared, rd *round) {
	lg, m0, m1 := &rd.lg, rd.m0, rd.m1
	rep.ops(lg.Requests+lg.Reads, lg.Failed+lg.ReadsFailed)
	for _, f := range lg.Failures {
		fmt.Fprintf(e.out, "failure: %s\n", f)
	}
	rep.check("ingest.requests_succeeded", lg.Failed == 0,
		fmt.Sprintf("%d of %d writes failed or refused (429: %d)", lg.Failed, lg.Requests, lg.Refused429))
	rep.check("ingest.accepted_equals_entries_in", int(lg.Accepted) == rd.h1.EntriesIn-rd.h0.EntriesIn,
		fmt.Sprintf("accepted %d, /healthz entries_in grew by %d", lg.Accepted, rd.h1.EntriesIn-rd.h0.EntriesIn))
	rejOrder := delta(m0, m1, "ingest_rejected_order_total")
	rejSkew := delta(m0, m1, "ingest_rejected_skew_total")
	rep.check("ingest.no_order_or_skew_rejections", rejOrder == 0 && rejSkew == 0,
		fmt.Sprintf("order %.0f, skew %.0f", rejOrder, rejSkew))
	wantClean := int(rd.drained["out"]) - prep.restoredOut
	rep.check("ingest.clean_output_matches_final_report", rd.cleanLines == wantClean,
		fmt.Sprintf("-clean holds %d entries, final report out %d minus %d restored", rd.cleanLines, int(rd.drained["out"]), prep.restoredOut))
	if prep.history != nil {
		rep.check("ingest.reads_ok_and_history_matches_scan", lg.ReadsFailed == 0,
			fmt.Sprintf("%d of %d reads failed; /history expects %d entries over the pre-built blocks", lg.ReadsFailed, lg.Reads, prep.history.Entries))
	}

	// Validity: the workload must load the layers it claims to.
	in := delta(m0, m1, "stream_entries_in_total")
	dup := delta(m0, m1, "stream_duplicates_total") / in
	closed := delta(m0, m1, "stream_sessions_emitted_total")
	rep.check("validity.dup_ratio_below_0.10", dup < 0.10, fmt.Sprintf("%.4f", dup))
	rep.check("validity.sessions_closed_during_load", closed > 0, fmt.Sprintf("%.2f per 1k entries", 1000*closed/in))
	// The emit path re-parses cleaned statements (all hits but the
	// rewritten ones), so hits over all parses would overstate the ingest
	// path; a miss is a statement the ingest path met for the first time.
	wl.guard(rep, 1-delta(m0, m1, "parse_cache_misses_total")/in)
}

func runIngest(e *env, rep *report, traced bool, wl ingestWorkload) (*outcome, error) {
	pristine := filepath.Join(e.workDir, "pristine")
	prep, err := wl.prepare(e, pristine)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", wl.name, err)
	}

	var rounds []*round
	start := time.Now()
	for r := 0; r < wl.minRounds || (wl.repeat && time.Since(start).Seconds() < e.seconds); r++ {
		rd, err := runRound(e, wl, r, pristine, prep, traced)
		if err != nil {
			return nil, err
		}
		checkRound(e, rep, wl, prep, rd)
		rounds = append(rounds, rd)
		lg := &rd.lg
		fmt.Fprintf(e.out, "round %d: setup %.3f s, %d entries in %.3f s, ack p50 %.3f ms\n", r,
			rd.setups[len(rd.setups)-1], lg.Accepted, float64(lg.AppliedNS-lg.FirstSendNS)/1e9, median(nsToMS(lg.AckNS)))
	}

	var setups, rates, ack, reads, late, peaks []float64
	o := &outcome{deltas: map[string]float64{}, pristine: pristine}
	var lgCPU, lgWall float64
	for _, rd := range rounds {
		lg := &rd.lg
		setups = append(setups, rd.setups...)
		rates = append(rates, float64(lg.Accepted)/(float64(lg.AppliedNS-lg.FirstSendNS)/1e9))
		ack = append(ack, nsToMS(lg.AckNS)...)
		reads = append(reads, nsToMS(lg.ReadNS)...)
		late = append(late, nsToMS(lg.LateNS)...)
		peaks = append(peaks, rd.peakMiB)
		o.entries += float64(lg.Accepted)
		o.spans = append(o.spans, lg.Spans...)
		o.cpuMS += rd.cpuMS
		o.wallMS += rd.wallMS
		lgCPU += float64(lg.CPUNS) / 1e6
		lgWall += float64(lg.LoadEndNS-lg.LoadStartNS) / 1e6
		for k := range rd.m1 {
			o.deltas[k] += delta(rd.m0, rd.m1, k)
		}
		o.deltas["ingest_queue_depth_max"] = max(o.deltas["ingest_queue_depth_max"], rd.m1["ingest_queue_depth_max"])
	}
	o.gcRuns = o.deltas["go_gc_runs_total"]
	o.gcPauseMS = o.deltas["go_gc_pause_ns_sum"] / 1e6
	o.loadgenCPU = lgCPU / lgWall
	if len(late) > 0 {
		o.lateP99MS = quantile(late, 0.99)
	}
	if prep.history != nil {
		o.historyQuery = prep.history.Query
	}
	generatorBound := o.loadgenCPU > 0.9 || o.lateP99MS > 50
	fmt.Fprintf(e.out, "loadgen: %d round(s), cpu_util %.3f, late_p99 %.3f ms, generator-limited=%v\n",
		len(rounds), o.loadgenCPU, o.lateP99MS, generatorBound)

	// End-to-end metrics.
	rep.metric("setup_s", median(setups), "s", len(setups))
	o.rate = median(rates)
	rep.metric("entries_per_s", o.rate, "entries/s", len(rates))
	rep.info("ingest_entries_per_s", o.rate, "entries/s", len(rates))
	rep.info("ack_p50_ms", median(ack), "ms", len(ack))
	if supports(len(ack), 0.99) {
		rep.info("ack_p99_ms", quantile(ack, 0.99), "ms", len(ack))
	}
	if len(reads) > 0 {
		rep.info("read_p50_ms", median(reads), "ms", len(reads))
		if supports(len(reads), 0.9) {
			rep.info("read_p90_ms", quantile(reads, 0.9), "ms", len(reads))
		}
	}
	rep.metric("peak_rss_mb", median(peaks), "MiB", len(peaks))
	if n := o.deltas["http_ingest_latency_ns_count"]; n > 0 {
		rep.info("daemon_ack_mean_ms", o.deltas["http_ingest_latency_ns_sum"]/n/1e6, "ms", int(n))
	}
	return o, nil
}
