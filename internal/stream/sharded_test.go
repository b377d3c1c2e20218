package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlclean/internal/core"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/workload"
)

// TestShardedMatchesBatchPipeline is the acceptance equivalence: the sharded
// streaming engine must produce the same multiset of cleaned statements and
// the same dedup/template statistics as the serial batch pipeline on the
// seed workload (order-normalized — emission order differs by construction).
func TestShardedMatchesBatchPipeline(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.4))
	log.SortStable()

	batch, err := core.Run(log, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		streamed, st, err := RunSharded(log, ShardedConfig{Shards: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if st.Duplicates != batch.Dedup.Removed {
			t.Errorf("workers %d: duplicates: sharded %d, batch %d", workers, st.Duplicates, batch.Dedup.Removed)
		}
		mb := statementMultiset(batch.Clean)
		ms := statementMultiset(streamed)
		if len(mb) != len(ms) {
			t.Fatalf("workers %d: distinct statements: batch %d, sharded %d", workers, len(mb), len(ms))
		}
		for s, n := range mb {
			if ms[s] != n {
				t.Fatalf("workers %d: statement %q: batch %d, sharded %d", workers, s, n, ms[s])
			}
		}
	}
}

// TestShardedMatchesSerialStream pins the sharded engine against the serial
// Processor: identical output multiset and identical additive counters.
func TestShardedMatchesSerialStream(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.3))
	log.SortStable()

	serialOut, serialStats, err := Run(log, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shardedOut, shardedStats, err := RunSharded(log, ShardedConfig{Shards: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serialStats.In != shardedStats.In ||
		serialStats.Selects != shardedStats.Selects ||
		serialStats.Duplicates != shardedStats.Duplicates ||
		serialStats.Out != shardedStats.Out ||
		serialStats.SolvedQueries != shardedStats.SolvedQueries ||
		serialStats.SessionsEmitted != shardedStats.SessionsEmitted {
		t.Errorf("stats: serial %+v, sharded %+v", serialStats, shardedStats)
	}
	for k, n := range serialStats.Antipatterns {
		if shardedStats.Antipatterns[k] != n {
			t.Errorf("antipattern %s: serial %d, sharded %d", k, n, shardedStats.Antipatterns[k])
		}
	}
	ms, mo := statementMultiset(serialOut), statementMultiset(shardedOut)
	if len(ms) != len(mo) {
		t.Fatalf("distinct statements: serial %d, sharded %d", len(ms), len(mo))
	}
	for s, n := range ms {
		if mo[s] != n {
			t.Fatalf("statement %q: serial %d, sharded %d", s, n, mo[s])
		}
	}

	// Template statistics merge exactly across shards.
	eng := NewSharded(ShardedConfig{Shards: 16})
	for _, e := range log {
		if _, err := eng.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	serialProc := New(Config{})
	for _, e := range log {
		if _, err := serialProc.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	serialProc.Close()
	st, ss := eng.Templates(), serialProc.Templates()
	if len(st) != len(ss) {
		t.Fatalf("templates: sharded %d, serial %d", len(st), len(ss))
	}
	bySkel := map[string][2]int{}
	for _, tt := range ss {
		bySkel[tt.Skeleton] = [2]int{tt.Frequency, tt.UserPopularity}
	}
	for _, tt := range st {
		want := bySkel[tt.Skeleton]
		if tt.Frequency != want[0] || tt.UserPopularity != want[1] {
			t.Fatalf("template %q: sharded freq=%d pop=%d, serial freq=%d pop=%d",
				tt.Skeleton, tt.Frequency, tt.UserPopularity, want[0], want[1])
		}
	}
}

// TestAddShardBatchMatchesAddShard pins the batch entry point's faithfulness:
// the same stream applied per entry and in batches (of varying sizes, split
// mid-shard) must leave two engines in identical states — stats, templates,
// watermark, open sessions — and produce the same outputs in the same order.
func TestAddShardBatchMatchesAddShard(t *testing.T) {
	log, _ := workload.Generate(workload.DefaultConfig().Scale(0.2))
	log.SortStable()
	cfg := ShardedConfig{Shards: 4}

	perEntry := NewSharded(cfg)
	batched := NewSharded(cfg)

	var outA, outB logmodel.Log
	// Per-entry reference.
	for _, e := range log {
		out, err := perEntry.AddShard(perEntry.ShardFor(e.User), e)
		if err != nil {
			t.Fatal(err)
		}
		outA = append(outA, out...)
	}
	// Batched: feed maximal same-shard runs of the input, so the global
	// apply order is identical to the per-entry pass and every divergence
	// is attributable to the batch entry point itself. Runs longer than one
	// entry exercise multi-entry batches; a multiset check would hide
	// nothing here — order must match too.
	batches := 0
	for start := 0; start < len(log); {
		i := batched.ShardFor(log[start].User)
		end := start + 1
		for end < len(log) && batched.ShardFor(log[end].User) == i {
			end++
		}
		batched.AddShardBatch(i, log[start:end], func(k int, out logmodel.Log, err error) {
			if err != nil {
				t.Fatal(err)
			}
			outB = append(outB, out...)
		})
		if end-start > 1 {
			batches++
		}
		start = end
	}
	if batches == 0 {
		t.Fatal("input produced no multi-entry batches; the test lost its point")
	}
	outA = append(outA, perEntry.Close()...)
	outB = append(outB, batched.Close()...)

	if sa, sb := perEntry.Stats(), batched.Stats(); fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
		t.Errorf("stats diverged:\nper-entry %+v\nbatched   %+v", sa, sb)
	}
	if wa, wb := perEntry.Watermark(), batched.Watermark(); !wa.Equal(wb) {
		t.Errorf("watermark diverged: per-entry %v, batched %v", wa, wb)
	}
	if len(outA) != len(outB) {
		t.Fatalf("output length: per-entry %d, batched %d", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("output %d diverged: per-entry %+v, batched %+v", i, outA[i], outB[i])
		}
	}
	ta, tb := perEntry.Templates(), batched.Templates()
	if len(ta) != len(tb) {
		t.Fatalf("templates: per-entry %d, batched %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("template %d diverged: per-entry %+v, batched %+v", i, ta[i], tb[i])
		}
	}
}

// TestShardedConcurrentAdds hammers the engine from 8 goroutines (each
// owning disjoint users, preserving the per-user ordering contract) and
// checks nothing is lost or double-counted. Run with -race.
func TestShardedConcurrentAdds(t *testing.T) {
	const (
		clients = 8
		perUser = 50
	)
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	eng := NewSharded(ShardedConfig{Shards: 4, SweepEvery: 32, Config: Config{Metrics: reg}})

	var mu sync.Mutex
	var emitted logmodel.Log
	// Clients proceed in lockstep rounds: within a round all 8 add
	// concurrently (same timestamp — racing on shard locks, the shared
	// parser and the sweep), and the barrier between rounds preserves the
	// per-shard time-ordering contract.
	for i := 0; i < perUser; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				e := logmodel.Entry{
					Time:      base.Add(time.Duration(i) * 20 * time.Minute), // every round its own session
					User:      fmt.Sprintf("client%02d", c),
					Statement: fmt.Sprintf("SELECT name FROM Employees WHERE id = %d", c*1000+i),
				}
				out, err := eng.Add(e)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				emitted = append(emitted, out...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}
	emitted = append(emitted, eng.Close()...)

	st := eng.Stats()
	want := clients * perUser
	if st.In != want || st.Selects != want || st.Out != want {
		t.Errorf("stats: %+v, want in=selects=out=%d", st, want)
	}
	if len(emitted) != want {
		t.Errorf("emitted %d entries, want %d", len(emitted), want)
	}
	if st.SessionsEmitted != want {
		t.Errorf("sessions emitted %d, want %d", st.SessionsEmitted, want)
	}
	if hw := st.OpenSessionsHighWater; hw < 1 || hw > clients {
		t.Errorf("open-session high water %d outside [1, %d]", hw, clients)
	}
	if g := reg.Gauge("stream_open_sessions"); g.Value() != 0 {
		t.Errorf("open-session gauge not drained: %d", g.Value())
	}
}

// TestShardedWatermarkSweep checks the cross-shard window merge: a session
// in a quiet partition is closed by other partitions' traffic advancing the
// global watermark — without its own shard ever seeing another entry and
// without Close.
func TestShardedWatermarkSweep(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	eng := NewSharded(ShardedConfig{Shards: 8, SweepEvery: 4})

	// Find two users in different shards.
	quiet := "quiet-user"
	busy := ""
	for i := 0; ; i++ {
		u := fmt.Sprintf("busy%d", i)
		if eng.ShardFor(u) != eng.ShardFor(quiet) {
			busy = u
			break
		}
	}

	if _, err := eng.Add(logmodel.Entry{Time: base, User: quiet, Statement: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	// Busy traffic far past quiet's gap + lateness; enough adds to trigger
	// the periodic sweep.
	var got logmodel.Log
	for i := 0; i < 16; i++ {
		out, err := eng.Add(logmodel.Entry{
			Time:      base.Add(time.Hour + time.Duration(i)*time.Second),
			User:      busy,
			Statement: "SELECT 2",
		})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	found := false
	for _, e := range got {
		if e.User == quiet {
			found = true
		}
	}
	if !found {
		t.Fatalf("quiet user's session not swept out; emitted: %v", got)
	}
	if eng.OpenSessions() != 1 {
		t.Errorf("open sessions: %d, want 1 (busy only)", eng.OpenSessions())
	}
}

// TestShardedSweepSkipsBusyShard: a shard the caller reports busy (entries
// still queued for it) keeps its session through cross-shard sweeps; once
// idle, the next sweep closes it.
func TestShardedSweepSkipsBusyShard(t *testing.T) {
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	var lagging atomic.Bool
	lagging.Store(true)
	var eng *Sharded
	quiet := "quiet-user"
	eng = NewSharded(ShardedConfig{Shards: 8, SweepEvery: 4, Busy: func(i int) bool {
		return lagging.Load() && i == eng.ShardFor(quiet)
	}})
	busy := ""
	for i := 0; ; i++ {
		u := fmt.Sprintf("busy%d", i)
		if eng.ShardFor(u) != eng.ShardFor(quiet) {
			busy = u
			break
		}
	}
	if _, err := eng.Add(logmodel.Entry{Time: base, User: quiet, Statement: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	feed := func(from int) (quietOut int) {
		for i := from; i < from+16; i++ {
			out, err := eng.Add(logmodel.Entry{Time: base.Add(time.Hour + time.Duration(i)*time.Second), User: busy, Statement: "SELECT 2"})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range out {
				if e.User == quiet {
					quietOut++
				}
			}
		}
		return quietOut
	}
	if n := feed(0); n != 0 || eng.OpenSessions() != 2 {
		t.Fatalf("busy shard swept: %d quiet entries emitted, %d open sessions, want 0 and 2", n, eng.OpenSessions())
	}
	lagging.Store(false)
	if n := feed(16); n != 1 || eng.OpenSessions() != 1 {
		t.Fatalf("idle shard not swept: %d quiet entries emitted, %d open sessions, want 1 and 1", n, eng.OpenSessions())
	}
}

// TestShardedSharedParser pins the shared parse cache: two shards seeing the
// same statement text produce one cache miss and one hit, aggregated in the
// registry the parser was instrumented with.
func TestShardedSharedParser(t *testing.T) {
	reg := obs.NewRegistry()
	parser := parsedlog.NewParser()
	parser.Instrument(reg)
	eng := NewSharded(ShardedConfig{Shards: 4, Config: Config{Parser: parser}})

	// Two users in different shards issuing the identical statement.
	a := "alice"
	b := ""
	for i := 0; ; i++ {
		u := fmt.Sprintf("bob%d", i)
		if eng.ShardFor(u) != eng.ShardFor(a) {
			b = u
			break
		}
	}
	base := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	const stmt = "SELECT name FROM Employees WHERE id = 7"
	if _, err := eng.Add(logmodel.Entry{Time: base, User: a, Statement: stmt}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add(logmodel.Entry{Time: base.Add(time.Second), User: b, Statement: stmt}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("parse_cache_misses_total").Value(); got != 1 {
		t.Errorf("cache misses: %d, want 1 (shared cache)", got)
	}
	if got := reg.Counter("parse_cache_hits_total").Value(); got != 1 {
		t.Errorf("cache hits: %d, want 1", got)
	}
}
