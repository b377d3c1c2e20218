package main

import (
	"bytes"
	"hash/fnv"
	"sort"
	"time"

	"sqlclean"
	"sqlclean/internal/logmodel"
)

// Workload shapes. Each value is part of the workload definition: changing
// one changes what the benchmark measures, so later comparisons across the
// change are void.
const (
	// cleanChunkScale is the size of each generator run merged into the
	// clean_batch log.
	cleanChunkScale = 2
	// clusterThreshold is the §6.9 overlap-clustering operating point.
	clusterThreshold = 0.9

	// ingest_bulk: two closed-loop clients POST 100-entry batches of fresh
	// entries; bulkRoundEntries is the fixed work of one daemon lifetime.
	bulkClients    = 2
	bulkBatch      = 100
	bulkChunkScale = 0.5 // one fresh chunk is ~4k generated entries
	// bulkWarp is event seconds per wall second: the 5-minute session gap
	// is 0.25 s of wall time, so sessions close while a round's load runs.
	// Two clients' stamps reach one shard out of order by at most a
	// request's time in flight, far below that gap.
	bulkWarp = 1200

	// ingest_mixed: one open-loop writer at mixedRate requests/s of 1–5
	// entries, cycling a small log so the parse cache stays warm, plus one
	// reader rotating the read endpoints at readRate requests/s. One
	// connection serializes the writes, and a write takes about 1 ms on a
	// 2-core VM (fsync included), so 400/s keeps that connection about 40%
	// busy. At 1000/s it ran near saturation: one stall queued the rest of
	// the run, and the same seed gave ack p50s of 1.3 ms and 11 ms.
	mixedRate = 400
	readRate  = 20
	// mixedWarp: one pass over the cycled log spans ~0.7 s of wall time,
	// which is longer than the 5-minute session gap (0.25 s) and far
	// beyond the 1 s duplicate window, so cycling creates no duplicates.
	mixedWarp = 1200
)

// sizes are the input sizes of the workload definition. Only the
// benchmark's own tests replace them, with smaller ones.
type sizes struct {
	// cleanScale sizes the clean_batch log: workload scale 16 is about
	// 130k entries, ~90% of them distinct statements.
	cleanScale float64
	// bulkRoundEntries is ingest_bulk's fixed work per daemon lifetime.
	bulkRoundEntries int
	// bulkTailScale sizes the journal tail replayed at set-up (~16k).
	bulkTailScale float64
	// mixedLogScale sizes the small log ingest_mixed cycles (~800).
	mixedLogScale float64
	// mixedHistScale sizes ingest_mixed's history (~24k entries), split
	// into columnar blocks, a snapshot and a journal tail.
	mixedHistScale float64
	// layerEntries caps the entries the in-process layer pass replays.
	layerEntries int
}

var size = sizes{cleanScale: 16, bulkRoundEntries: 50000, bulkTailScale: 2, mixedLogScale: 0.1, mixedHistScale: 1, layerEntries: 30000}

// loadBase is the event time the load's warped clock starts at: after
// every generated entry (the generator's window is 2003-06 + 5 years), so
// set-up data never trails the load.
var loadBase = time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)

// mix64 is the splitmix64 finalizer: derives independent sub-seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func subSeed(seed int64, k int) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(k) + 1))
}

// genLog generates a SkyServer-style log with the repo's generator.
func genLog(seed int64, scale float64) sqlclean.Log {
	cfg := sqlclean.DefaultWorkloadConfig().Scale(scale)
	cfg.Seed = seed
	l, _ := sqlclean.GenerateWorkload(cfg)
	return l
}

// genMerged merges independently seeded generator runs of chunkScale into
// one time-ordered log of about scale. Many small runs average out what a
// single run draws once (its few bots' run lengths, its SWS ranges), so two
// seeds give logs of the same cost, while every entry still comes from the
// seed.
func genMerged(seed int64, scale, chunkScale float64) sqlclean.Log {
	var out sqlclean.Log
	for k := 0; float64(k)*chunkScale < scale; k++ {
		out = append(out, genLog(subSeed(seed, 200+k), min(chunkScale, scale))...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	for i := range out {
		out[i].Seq = int64(i)
	}
	return out
}

// freshStream concatenates independently seeded chunks until it holds n
// entries: every entry is new to the daemon.
func freshStream(seed int64, n int) sqlclean.Log {
	var out sqlclean.Log
	for k := 0; len(out) < n; k++ {
		out = append(out, genLog(subSeed(seed, 100+k), bulkChunkScale)...)
	}
	return out[:n]
}

// partition splits a log by user hash across n clients, keeping each
// user's entries in order on one client.
func partition(l sqlclean.Log, n int, seed int64) []sqlclean.Log {
	parts := make([]sqlclean.Log, n)
	for _, e := range l {
		h := fnv.New64a()
		h.Write([]byte(e.User))
		c := int(mix64(h.Sum64()^uint64(seed)) % uint64(n))
		parts[c] = append(parts[c], e)
	}
	return parts
}

// encodedLog holds each entry's TSV line without its timestamp, so a
// request body is the warped-clock stamp plus pre-encoded bytes.
type encodedLog [][]byte

const tsvTimeWidth = len(logmodel.TimeFormat)

func encodeLog(l sqlclean.Log) encodedLog {
	var buf bytes.Buffer
	out := make(encodedLog, len(l))
	for i := range l {
		buf.Reset()
		_ = sqlclean.WriteLogTSV(&buf, l[i:i+1]) // a bytes.Buffer write cannot fail
		out[i] = append([]byte(nil), buf.Bytes()[tsvTimeWidth:]...)
	}
	return out
}

// warpClock maps wall time to event time: base + warp × elapsed.
type warpClock struct {
	t0   time.Time
	base time.Time
	warp int64
}

func (c warpClock) at(t time.Time) time.Time {
	return c.base.Add(time.Duration(c.warp) * t.Sub(c.t0))
}

// appendBody appends one request body: each line stamped with ts.
func appendBody(dst []byte, ts time.Time, lines [][]byte) []byte {
	stamp := ts.UTC().AppendFormat(nil, logmodel.TimeFormat)
	for _, l := range lines {
		dst = append(dst, stamp...)
		dst = append(dst, l...)
	}
	return dst
}

// mixedSizes draws the 1–5 entry sizes of the ingest_mixed writes.
func mixedSizes(seed int64, n int) []int {
	x := uint64(subSeed(seed, 7))
	out := make([]int, n)
	for i := range out {
		x = mix64(x + 0x9e3779b97f4a7c15)
		out[i] = 1 + int(x%5)
	}
	return out
}
