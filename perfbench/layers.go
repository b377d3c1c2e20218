package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sqlclean"
	"sqlclean/internal/antipattern"
	"sqlclean/internal/colstore"
	"sqlclean/internal/dedup"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/pattern"
	"sqlclean/internal/rewrite"
	"sqlclean/internal/schema"
	"sqlclean/internal/server"
	"sqlclean/internal/session"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/stream"
)

// perLayer lists every per-layer metric, named <module>.<metric>. The
// layers are the program's modules. A workload that bypasses a layer
// reports its metrics as 0 and names the layer as bypassed.
var perLayer = []struct{ name, unit string }{
	{"logmodel.decode_ns_per_entry", "ns"},
	{"logmodel.decode_allocs_per_entry", "allocs"},
	{"logmodel.read_ns_per_entry", "ns"},
	{"logmodel.write_ns_per_entry", "ns"},
	{"parsedlog.parse_ns_per_entry", "ns"},
	{"parsedlog.parse_allocs_per_entry", "allocs"},
	{"parsedlog.cache_hit_ratio", "ratio"},
	{"parsedlog.cache_entries", "count"},
	{"journal.append_ns_per_entry", "ns"},
	{"journal.append_allocs_per_entry", "allocs"},
	{"journal.bytes_per_entry", "bytes"},
	{"journal.commit_us_p50", "us"},
	{"journal.commit_us_p99", "us"},
	{"journal.fsyncs_per_1k_entries", "count"},
	{"journal.entries_per_fsync", "count"},
	{"journal.fsync_us_mean", "us"},
	{"journal.replay_entries_per_s", "entries/s"},
	{"stream.apply_ns_per_entry", "ns"},
	{"stream.apply_allocs_per_entry", "allocs"},
	{"stream.open_sessions_peak", "count"},
	{"stream.sessions_closed_per_1k_entries", "count"},
	{"stream.dup_ratio", "ratio"},
	{"stream.out_per_in", "ratio"},
	{"stream.rejected_order", "count"},
	{"stream.templates_us", "us"},
	{"stream.sketches_merge_us", "us"},
	{"stream.snapshot_ms", "ms"},
	{"stream.restore_ms", "ms"},
	{"sketch.sws_classify_us", "us"},
	{"sketch.topk_us", "us"},
	{"colstore.compact_ns_per_entry", "ns"},
	{"colstore.bytes_per_journal_byte", "ratio"},
	{"colstore.index_read_us", "us"},
	{"colstore.scan_ns_per_entry", "ns"},
	{"overlap.cluster_ms", "ms"},
	{"overlap.comparisons_avoided_ratio", "ratio"},
	{"dedup.remove_ns_per_entry", "ns"},
	{"session.build_ns_per_entry", "ns"},
	{"pattern.templates_ns_per_entry", "ns"},
	{"pattern.sequences_ns_per_entry", "ns"},
	{"antipattern.detect_ns_per_entry", "ns"},
	{"antipattern.instances", "count"},
	{"rewrite.apply_ns_per_entry", "ns"},
	{"parallel.speedup", "ratio"},
	{"server.ingest_handler_us_p50", "us"},
	{"server.ingest_handler_us_p99", "us"},
	{"server.report_ms", "ms"},
	{"server.toplist_ms", "ms"},
	{"server.history_ms", "ms"},
	{"server.clusters_ms", "ms"},
	{"server.queue_depth_peak", "count"},
	{"server.refused_429", "count"},
	{"runtime.gc_runs_per_1k_entries", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"daemon.cpu_ms_per_1k_entries", "ms"},
	{"daemon.cpu_util", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cpu_util", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// runTraced runs the workload untraced and then traced, half the seconds
// each, reports the tracing overhead as the difference of the two
// end-to-end throughputs, then runs the in-process layer pass on the
// workload's own inputs and writes every span to a file.
func runTraced(e *env, rep *report, name string, run workloadFunc) error {
	phase := func(label string, traced bool) (*outcome, error) {
		pe := *e
		pe.seconds = e.seconds / 2
		pe.workDir = filepath.Join(e.workDir, label)
		if err := os.MkdirAll(pe.workDir, 0o755); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.out, "--- %s end-to-end phase (%.3g s) ---\n", label, pe.seconds)
		return run(&pe, rep, traced)
	}
	plain, err := phase("untraced", false)
	if err != nil {
		return err
	}
	traced, err := phase("traced", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "--- in-process layer pass ---\n")
	lp := &layerPass{e: e, rep: rep, tr: newTracer("layers"), dir: filepath.Join(e.workDir, "layers"), done: map[string]bool{}}
	lp.root = lp.tr.start("bench.layer_pass", 0, 0)
	err = lp.run(name, traced)
	lp.tr.end(lp.root)
	if err != nil {
		return err
	}
	lp.put("trace.overhead_ratio", (plain.rate-traced.rate)/plain.rate, "ratio")
	fmt.Fprintf(e.out, "tracing overhead: untraced %.1f vs traced %.1f entries/s\n", plain.rate, traced.rate)

	var bypassed []string
	for _, m := range perLayer {
		if !lp.done[m.name] {
			rep.metric(m.name, 0, m.unit, -1)
			bypassed = append(bypassed, m.name)
		}
	}
	if len(bypassed) > 0 {
		fmt.Fprintf(e.out, "bypassed by %s (reported as 0): %s\n", name, strings.Join(bypassed, " "))
	}
	spans := append(traced.spans, lp.tr.spans()...)
	printSelfTimes(e.out, selfTimes(spans))
	path := filepath.Join(e.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "spans: %d written to %s\n", len(spans), path)
	return nil
}

// layerPass times calls into each module's public functions on one
// goroutine, so the allocation delta around a call belongs to that call.
type layerPass struct {
	e    *env
	rep  *report
	tr   *tracer
	root int64
	dir  string
	done map[string]bool
}

func (lp *layerPass) put(name string, v float64, unit string) {
	if perLayerUnit(name) != unit {
		panic("perfbench: metric " + name + " reported with unit " + unit)
	}
	lp.done[name] = true
	lp.rep.metric(name, v, unit, -1)
}

// timed runs fn inside a span and returns its wall time and the heap
// allocations it made.
func (lp *layerPass) timed(name string, fn func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := lp.tr.start(name, lp.root, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	lp.tr.end(id)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.Mallocs - m0.Mallocs)
}

// medianOf times fn n times and returns the median.
func (lp *layerPass) medianOf(name string, n int, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < n; i++ {
		d, _ := lp.timed(name, fn)
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}

func perEntry(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

// layerInputs are request bodies exactly as the workload's generator
// sends them (the traced run's measured rate sets the warped clock).
func layerInputs(e *env, name string, o *outcome) ([][]byte, error) {
	var bodies [][]byte
	switch name {
	case "clean_batch":
		l := genMerged(e.seed, size.cleanScale, cleanChunkScale)
		enc := encodeLog(l)
		for i := 0; i < len(enc); i += bulkBatch {
			var b []byte
			for k := i; k < min(i+bulkBatch, len(enc)); k++ {
				b = appendBody(b, l[k].Time, enc[k:k+1])
			}
			bodies = append(bodies, b)
		}
	case "ingest_bulk":
		n := min(size.bulkRoundEntries, size.layerEntries)
		parts := partition(freshStream(e.seed, n), bulkClients, e.seed)
		enc := []encodedLog{encodeLog(parts[0]), encodeLog(parts[1])}
		pos := []int{0, 0}
		for r := 0; pos[0] < len(enc[0]) || pos[1] < len(enc[1]); r++ {
			c := r % 2
			if pos[c] >= len(enc[c]) {
				continue
			}
			end := min(pos[c]+bulkBatch, len(enc[c]))
			at := loadBase.Add(time.Duration(float64(bulkWarp) * float64(r*bulkBatch) / o.rate * float64(time.Second)))
			bodies = append(bodies, appendBody(nil, at, enc[c][pos[c]:end]))
			pos[c] = end
		}
	case "ingest_mixed":
		lines := encodeLog(genLog(subSeed(e.seed, 3), size.mixedLogScale))
		n := min(int(e.seconds*mixedRate), size.layerEntries/5)
		sizes := mixedSizes(e.seed, n)
		cursor := 0
		for i := 0; i < n; i++ {
			batch := make([][]byte, 0, sizes[i])
			for k := 0; k < sizes[i]; k++ {
				batch = append(batch, lines[cursor])
				cursor = (cursor + 1) % len(lines)
			}
			at := loadBase.Add(time.Duration(mixedWarp) * time.Duration(i) * time.Second / mixedRate)
			bodies = append(bodies, appendBody(nil, at, batch))
		}
	default:
		return nil, fmt.Errorf("no layer inputs for %q", name)
	}
	return bodies, nil
}

func (lp *layerPass) run(name string, o *outcome) error {
	if err := os.MkdirAll(lp.dir, 0o755); err != nil {
		return err
	}
	bodies, err := layerInputs(lp.e, name, o)
	if err != nil {
		return err
	}
	ingest := name != "clean_batch"

	// logmodel: decode each request body, then read and write the whole log.
	reqs := make([]logmodel.Log, len(bodies))
	d, allocs := lp.timed("logmodel.ScanTSVLines", func() {
		for i, b := range bodies {
			_ = logmodel.ScanTSVLines(bytes.NewReader(b), func(_ int, e logmodel.Entry) error {
				reqs[i] = append(reqs[i], e)
				return nil
			})
		}
	})
	var entries logmodel.Log
	for _, r := range reqs {
		entries = append(entries, r...)
	}
	n := len(entries)
	if n == 0 {
		return fmt.Errorf("layer pass: no entries decoded")
	}
	lp.put("logmodel.decode_ns_per_entry", perEntry(d, n), "ns")
	lp.put("logmodel.decode_allocs_per_entry", allocs/float64(n), "allocs")
	whole := bytes.Join(bodies, nil)
	d, _ = lp.timed("logmodel.ReadTSV", func() { _, err = logmodel.ReadTSV(bytes.NewReader(whole)) })
	if err != nil {
		return err
	}
	lp.put("logmodel.read_ns_per_entry", perEntry(d, n), "ns")
	d, _ = lp.timed("logmodel.WriteTSV", func() { err = logmodel.WriteTSV(io.Discard, entries) })
	if err != nil {
		return err
	}
	lp.put("logmodel.write_ns_per_entry", perEntry(d, n), "ns")

	// parsedlog: parse ahead of apply on what becomes the engine's shared
	// parser, as the daemon's engine would meet the entries.
	reg := obs.NewRegistry()
	parser := parsedlog.NewParser()
	parser.Instrument(reg)
	d, allocs = lp.timed("parsedlog.ParseEntry", func() {
		for _, e := range entries {
			parser.ParseEntry(e)
		}
	})
	c := reg.Snapshot().Counters
	lp.put("parsedlog.parse_ns_per_entry", perEntry(d, n), "ns")
	lp.put("parsedlog.parse_allocs_per_entry", allocs/float64(n), "allocs")
	lp.put("parsedlog.cache_hit_ratio", float64(c["parse_cache_hits_total"])/float64(c["parse_entries_total"]), "ratio")
	lp.put("parsedlog.cache_entries", float64(c["parse_cache_misses_total"]), "count")

	lp.overlap(parser, entries, ingest)
	if ingest {
		if err := lp.ingestLayers(name, parser, reg, reqs, bodies, o); err != nil {
			return err
		}
	} else if err := lp.batchLayers(parser, entries); err != nil {
		return err
	}

	if o.entries > 0 {
		lp.put("runtime.gc_runs_per_1k_entries", 1000*o.gcRuns/o.entries, "count")
		lp.put("runtime.gc_pause_ms_total", o.gcPauseMS, "ms")
		lp.put("daemon.cpu_ms_per_1k_entries", 1000*o.cpuMS/o.entries, "ms")
	}
	if o.wallMS > 0 {
		lp.put("daemon.cpu_util", o.cpuMS/o.wallMS, "ratio")
	}
	return nil
}

// overlap clusters the predicate boxes of the SELECT entries: all of them
// for the batch pipeline, the distinct ones up to the daemon's 4096-box
// registry bound for the daemon workloads.
func (lp *layerPass) overlap(parser *parsedlog.Parser, entries logmodel.Log, distinct bool) {
	var boxes []overlap.Box
	seen := map[string]bool{}
	for _, e := range entries {
		pe := parser.ParseEntry(e)
		if pe.Class != sqlast.ClassSelect || pe.Info == nil {
			continue
		}
		b := overlap.FromInfo(pe.Info)
		if distinct {
			sig := overlap.Signature(b)
			if seen[sig] || len(boxes) >= 4096 {
				continue
			}
			seen[sig] = true
		}
		boxes = append(boxes, b)
	}
	var ctr overlap.Counters
	d, _ := lp.timed("overlap.ClusterBoxesFastGrid", func() {
		overlap.ClusterBoxesFastGrid(boxes, clusterThreshold, 1, &ctr)
	})
	lp.put("overlap.cluster_ms", float64(d)/1e6, "ms")
	avoided := 0.0
	if ctr.ScanComparisons > 0 {
		avoided = float64(ctr.Avoided()) / float64(ctr.ScanComparisons)
	}
	lp.put("overlap.comparisons_avoided_ratio", avoided, "ratio")
}

// batchLayers calls the batch pipeline's stages in core.Run order at
// workers=1, then measures the parallel speed-up of the whole Clean.
func (lp *layerPass) batchLayers(parser *parsedlog.Parser, entries logmodel.Log) error {
	parsedAll, _ := parser.ParseParallel(entries, 1)
	selParsed := parsedAll.Selects()
	var preClean logmodel.Log
	var kept []int
	d, _ := lp.timed("dedup.RemoveShardedIndexed", func() {
		preClean, kept, _ = dedup.RemoveShardedIndexed(selParsed.Raw(), time.Second, 1)
	})
	lp.put("dedup.remove_ns_per_entry", perEntry(d, len(selParsed)), "ns")
	parsed := selParsed.Subset(kept)
	var sessions []session.Session
	d, _ = lp.timed("session.BuildParallel", func() {
		sessions = session.BuildParallel(preClean, session.Options{MaxGap: 5 * time.Minute, SplitOnLabel: true}, 1)
	})
	lp.put("session.build_ns_per_entry", perEntry(d, len(preClean)), "ns")
	d, _ = lp.timed("pattern.TemplatesParallel", func() { pattern.TemplatesParallel(parsed, 1) })
	lp.put("pattern.templates_ns_per_entry", perEntry(d, len(parsed)), "ns")
	d, _ = lp.timed("pattern.SequencesParallel", func() { pattern.SequencesParallel(parsed, sessions, 3, 1) })
	lp.put("pattern.sequences_ns_per_entry", perEntry(d, len(parsed)), "ns")
	cat := schema.SkyServer()
	reg := antipattern.DefaultRegistry(cat, antipattern.Options{MinRun: 2, RequireKeyColumn: true})
	var instances []antipattern.Instance
	d, _ = lp.timed("antipattern.DetectParallel", func() { instances = reg.DetectParallel(parsed, sessions, 1) })
	lp.put("antipattern.detect_ns_per_entry", perEntry(d, len(parsed)), "ns")
	lp.put("antipattern.instances", float64(len(instances)), "count")
	d, _ = lp.timed("rewrite.Apply", func() { rewrite.Apply(parsed, instances, rewrite.DefaultSolvers(cat)) })
	lp.put("rewrite.apply_ns_per_entry", perEntry(d, len(parsed)), "ns")

	// The single-threaded baseline against the default worker count.
	var errs [2]error
	serial, _ := lp.timed("core.Clean workers=1", func() { _, errs[0] = sqlclean.Clean(entries, cleanConfig(1)) })
	par, _ := lp.timed("core.Clean workers=default", func() { _, errs[1] = sqlclean.Clean(entries, cleanConfig(0)) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	lp.put("parallel.speedup", float64(serial)/float64(par), "ratio")
	return nil
}

// ingestLayers measures the daemon-side layers: stream apply, sketches,
// journal, colstore and the server's handlers, plus the daemon's own
// /metrics deltas from the traced end-to-end phase.
func (lp *layerPass) ingestLayers(name string, parser *parsedlog.Parser, reg *obs.Registry, reqs []logmodel.Log, bodies [][]byte, o *outcome) error {
	n := 0
	for _, r := range reqs {
		n += len(r)
	}
	// stream: apply each request's per-shard batches, parse already warm.
	cfg := stream.ShardedConfig{Config: stream.Config{Parser: parser, Metrics: reg}}
	eng := stream.NewSharded(cfg)
	rejected := 0
	byShard := make([]logmodel.Log, eng.NumShards())
	d, allocs := lp.timed("stream.AddShardBatch", func() {
		for _, r := range reqs {
			for i := range byShard {
				byShard[i] = byShard[i][:0]
			}
			for _, e := range r {
				i := eng.ShardFor(e.User)
				byShard[i] = append(byShard[i], e)
			}
			for i, b := range byShard {
				if len(b) > 0 {
					eng.AddShardBatch(i, b, func(_ int, _ logmodel.Log, err error) {
						if err != nil {
							rejected++
						}
					})
				}
			}
		}
	})
	st := eng.Stats()
	lp.put("stream.apply_ns_per_entry", perEntry(d, n), "ns")
	lp.put("stream.apply_allocs_per_entry", allocs/float64(n), "allocs")
	lp.put("stream.open_sessions_peak", float64(st.OpenSessionsHighWater), "count")
	lp.put("stream.sessions_closed_per_1k_entries", 1000*float64(st.SessionsEmitted)/float64(st.In), "count")
	lp.put("stream.dup_ratio", float64(st.Duplicates)/float64(st.In), "ratio")
	lp.put("stream.out_per_in", float64(st.Out)/float64(st.In), "ratio")
	lp.put("stream.rejected_order", float64(rejected), "count")
	lp.put("stream.templates_us", float64(lp.medianOf("stream.Templates", 5, func() { eng.Templates() }))/1e3, "us")
	lp.put("stream.sketches_merge_us", float64(lp.medianOf("stream.Sketches", 5, func() { eng.Sketches() }))/1e3, "us")
	var blob []byte
	var err error
	d = lp.medianOf("stream.Snapshot", 3, func() { blob, err = json.Marshal(eng.Snapshot()) })
	if err != nil {
		return err
	}
	lp.put("stream.snapshot_ms", float64(d)/1e6, "ms")
	d = lp.medianOf("stream.Restore", 3, func() {
		var snap stream.ShardedSnapshot
		if err = json.Unmarshal(blob, &snap); err == nil {
			err = stream.NewSharded(stream.ShardedConfig{}).Restore(snap)
		}
	})
	if err != nil {
		return err
	}
	lp.put("stream.restore_ms", float64(d)/1e6, "ms")

	sk := eng.Sketches()
	lp.put("sketch.sws_classify_us", float64(lp.medianOf("sketch.SWSAccumulator.Classify", 5, func() {
		sk.SWS.Classify(st.Selects, pattern.DefaultSWSOptions())
	}))/1e3, "us")
	lp.put("sketch.topk_us", float64(lp.medianOf("sketch.SpaceSaving.Top", 5, func() { sk.Top.Top(20) }))/1e3, "us")

	// journal: one AppendBatch and one always-fsync Commit per request.
	jdir := filepath.Join(lp.dir, "journal")
	w, err := journal.Open(journal.Options{Dir: jdir, Policy: journal.FsyncAlways})
	if err != nil {
		return err
	}
	var appendNS time.Duration
	var commits []float64
	for _, r := range reqs {
		t0 := time.Now()
		if _, _, err := w.AppendBatch(r); err != nil {
			w.Close()
			return err
		}
		t1 := time.Now()
		if err := w.Commit(); err != nil {
			w.Close()
			return err
		}
		appendNS += t1.Sub(t0)
		commits = append(commits, float64(time.Since(t1))/1e3)
	}
	if err := w.Close(); err != nil {
		return err
	}
	lp.put("journal.append_ns_per_entry", perEntry(appendNS, n), "ns")
	lp.put("journal.commit_us_p50", median(commits), "us")
	lp.put("journal.commit_us_p99", quantile(commits, 0.99), "us")
	jbytes := dirBytes(jdir)
	lp.put("journal.bytes_per_entry", float64(jbytes)/float64(n), "bytes")
	// Allocations of the append alone, on a second journal.
	w2, err := journal.Open(journal.Options{Dir: filepath.Join(lp.dir, "journal2"), Policy: journal.FsyncNever})
	if err != nil {
		return err
	}
	_, allocs = lp.timed("journal.AppendBatch", func() {
		for _, r := range reqs {
			if _, _, err = w2.AppendBatch(r); err != nil {
				return
			}
		}
	})
	if err != nil {
		w2.Close()
		return err
	}
	if err := w2.Close(); err != nil {
		return err
	}
	lp.put("journal.append_allocs_per_entry", allocs/float64(n), "allocs")
	replayed := 0
	d, _ = lp.timed("journal.Replay", func() {
		_, err = journal.Replay(jdir, 1, func(_ uint64, payload []byte) error {
			_, derr := journal.DecodeEntry(payload)
			replayed++
			return derr
		})
	})
	if err != nil {
		return err
	}
	lp.put("journal.replay_entries_per_s", float64(replayed)/d.Seconds(), "entries/s")
	if fs := o.deltas["journal_fsync_ns_count"]; fs > 0 && o.entries > 0 {
		lp.put("journal.fsyncs_per_1k_entries", 1000*fs/o.entries, "count")
		lp.put("journal.fsync_us_mean", o.deltas["journal_fsync_ns_sum"]/fs/1e3, "us")
	}
	if g := o.deltas["journal_group_commit_entries_count"]; g > 0 {
		lp.put("journal.entries_per_fsync", o.deltas["journal_group_commit_entries_sum"]/g, "count")
	}

	// colstore: compact the journal just written, as `sqlclean -compact`.
	bdir := filepath.Join(lp.dir, "blocks")
	store, err := colstore.Open(colstore.Options{Dir: bdir})
	if err != nil {
		return err
	}
	cparser := parsedlog.NewParser()
	classify := func(stmt string) colstore.Classification {
		pe := cparser.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		return colstore.Classification{EngineFP: pe.Info.Fingerprint}
	}
	d, _ = lp.timed("colstore.CompactWALDir", func() { _, err = store.CompactWALDir(jdir, true, classify) })
	if err != nil {
		return err
	}
	lp.put("colstore.compact_ns_per_entry", perEntry(d, n), "ns")
	_, bbytes := store.Stats()
	lp.put("colstore.bytes_per_journal_byte", float64(bbytes)/float64(max(jbytes, 1)), "ratio")
	paths, _ := filepath.Glob(filepath.Join(bdir, "*"))
	var idx []float64
	for _, p := range paths {
		d, _ := lp.timed("colstore.ReadBlockIndex", func() { _, err = colstore.ReadBlockIndex(p) })
		if err != nil {
			return err
		}
		idx = append(idx, float64(d)/1e3)
	}
	lp.put("colstore.index_read_us", median(idx), "us")
	scanned := 0
	d, _ = lp.timed("colstore.Reader.Scan", func() {
		err = colstore.NewReader(bdir).Scan(colstore.ScanOptions{}, func(uint64, logmodel.Entry) error {
			scanned++
			return nil
		})
	})
	if err != nil {
		return err
	}
	lp.put("colstore.scan_ns_per_entry", perEntry(d, scanned), "ns")

	if err := lp.serverLayer(name, bodies, o); err != nil {
		return err
	}
	lp.put("server.queue_depth_peak", o.deltas["ingest_queue_depth_max"], "count")
	lp.put("server.refused_429", o.deltas["ingest_rejected_full_total"], "count")
	lp.put("loadgen.late_p99_ms", o.lateP99MS, "ms")
	lp.put("loadgen.cpu_util", o.loadgenCPU, "ratio")
	return nil
}

// serverLayer drives an in-process server.New(...).Handler() with the same
// request bodies, on a copy of the workload's prepared data directory.
func (lp *layerPass) serverLayer(name string, bodies [][]byte, o *outcome) error {
	dir := filepath.Join(lp.dir, "server")
	if err := copyDir(o.pristine, dir); err != nil {
		return err
	}
	cfg := server.Config{DataDir: dir, Fsync: journal.FsyncAlways, SnapshotInterval: -1, QueueSize: 65536}
	if name == "ingest_mixed" {
		cfg.Retain = true
		cfg.QueueSize = 0
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Close(ctx) // the pass's numbers are taken; a slow drain only delays exit
	}()
	h := srv.Handler()
	var us []float64
	id := lp.tr.start("server.Handler ingest", lp.root, 0)
	for i, b := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/ingest?format=tsv", bytes.NewReader(b))
		rec := httptest.NewRecorder()
		rid := lp.tr.start("server.ServeHTTP /ingest", id, int64(i+1))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t0))/1e3)
		lp.tr.end(rid)
		if rec.Code != http.StatusOK {
			lp.tr.end(id)
			return fmt.Errorf("in-process ingest: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	lp.tr.end(id)
	lp.put("server.ingest_handler_us_p50", median(us), "us")
	lp.put("server.ingest_handler_us_p99", quantile(us, 0.99), "us")
	get := func(metric, path string) error {
		var code int
		d := lp.medianOf("server.ServeHTTP "+endpointName(path), 5, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			code = rec.Code
		})
		if code != http.StatusOK {
			return fmt.Errorf("in-process GET %s: status %d", path, code)
		}
		lp.put(metric, float64(d)/1e6, "ms")
		return nil
	}
	for _, g := range []struct{ metric, path string }{
		{"server.report_ms", "/report"}, {"server.toplist_ms", "/toplist"}, {"server.clusters_ms", "/clusters"},
	} {
		if err := get(g.metric, g.path); err != nil {
			return err
		}
	}
	if o.historyQuery != "" {
		return get("server.history_ms", o.historyQuery)
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			n += info.Size()
		}
	}
	return n
}
