package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// loadSpec is the load generator's input. The generator derives its
// entries from the workload seed itself.
type loadSpec struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Base     string         `json:"base"`
	In0      int            `json:"in0"`
	History  *historyExpect `json:"history,omitempty"`
	Streams  []string       `json:"streams,omitempty"`   // ingest_bulk: one file of lines per client
	LogScale float64        `json:"log_scale,omitempty"` // ingest_mixed: size of the cycled log
	Trace    bool           `json:"trace"`
}

// loadResult is the load generator's output. Times ending in NS are
// durations, except the *StartNS/*EndNS/*SendNS/AppliedNS wall-clock
// instants (Unix nanoseconds).
type loadResult struct {
	Requests    int64    `json:"requests"`
	Accepted    int64    `json:"accepted"`
	Failed      int64    `json:"failed"`
	Refused429  int64    `json:"refused_429"`
	Reads       int64    `json:"reads"`
	ReadsFailed int64    `json:"reads_failed"`
	AckNS       []int64  `json:"ack_ns"`
	LateNS      []int64  `json:"late_ns,omitempty"`
	ReadNS      []int64  `json:"read_ns,omitempty"`
	FirstSendNS int64    `json:"first_send_ns"`
	AppliedNS   int64    `json:"applied_ns"`
	LoadStartNS int64    `json:"load_start_ns"`
	LoadEndNS   int64    `json:"load_end_ns"`
	CPUNS       int64    `json:"cpu_ns"`
	Failures    []string `json:"failures,omitempty"`
	Spans       []Span   `json:"spans,omitempty"`
}

// lgState is the generator's shared tally.
type lgState struct {
	mu  sync.Mutex
	res loadResult
	tr  *tracer
}

func (s *lgState) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.res.Failures) < 5 {
		s.res.Failures = append(s.res.Failures, fmt.Sprintf(format, args...))
	}
}

// oneConnClient has its own transport, so each client keeps exactly one
// keep-alive connection to the daemon.
func oneConnClient() *http.Client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost = 1
	tp.MaxIdleConnsPerHost = 1
	return &http.Client{Timeout: 60 * time.Second, Transport: tp}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

type ingestReply struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error"`
}

// post sends one ingest request and returns its status and accepted count.
func post(c *http.Client, base string, body []byte) (int, ingestReply, error) {
	var r ingestReply
	resp, err := c.Post(base+"/ingest?format=tsv", "text/tab-separated-values", bytes.NewReader(body))
	if err != nil {
		return 0, r, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return resp.StatusCode, r, fmt.Errorf("ingest reply: %v", err)
	}
	return resp.StatusCode, r, nil
}

func childLoadgen(specPath, resultPath string) error {
	var spec loadSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	st := &lgState{}
	if spec.Trace {
		st.tr = newTracer("loadgen")
	}
	var err error
	switch spec.Workload {
	case "ingest_bulk":
		err = loadBulk(spec, st)
	case "ingest_mixed":
		err = loadMixed(spec, st)
	default:
		err = fmt.Errorf("loadgen: unknown workload %q", spec.Workload)
	}
	if err != nil {
		return err
	}
	if err := waitApplied(spec, st); err != nil {
		return err
	}
	st.res.Spans = st.tr.spans()
	return writeJSON(resultPath, st.res)
}

// waitApplied polls /healthz until every accepted entry has been applied
// by the engine: entries_in grew by the accepted count and no queue holds
// a batch.
func waitApplied(spec loadSpec, st *lgState) error {
	c := oneConnClient()
	deadline := time.Now().Add(120 * time.Second)
	for {
		h, err := getHealth(c, spec.Base)
		if err == nil && h.EntriesIn-spec.In0 >= int(st.res.Accepted) && h.QueueDepth == 0 {
			st.res.AppliedNS = time.Now().UnixNano()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: accepted entries not applied within 120s (%v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// bulkRetryPause is the fixed pause before resending a refused suffix.
const bulkRetryPause = 20 * time.Millisecond

// loadBulk is ingest_bulk: two closed-loop clients, users partitioned by
// hash, each POSTing 100-entry batches of fresh entries stamped by one
// shared warped clock, until the fixed work is sent.
func loadBulk(spec loadSpec, st *lgState) error {
	enc := make([]encodedLog, len(spec.Streams))
	for i, path := range spec.Streams {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		enc[i] = bytes.SplitAfter(b, []byte{'\n'})
		if n := len(enc[i]); n > 0 && len(enc[i][n-1]) == 0 {
			enc[i] = enc[i][:n-1]
		}
	}
	start := time.Now()
	clock := warpClock{t0: start, base: loadBase, warp: bulkWarp}
	// A safety stop: a daemon far slower than HEAD still ends the run.
	deadline := start.Add(60 * time.Second)
	st.res.LoadStartNS = start.UnixNano()
	st.res.FirstSendNS = start.UnixNano()
	cpu0 := cpuNow()
	var wg sync.WaitGroup
	for ci := range enc {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			bulkClient(spec, st, enc[ci], clock, deadline, int64(ci))
		}(ci)
	}
	wg.Wait()
	st.res.LoadEndNS = time.Now().UnixNano()
	st.res.CPUNS = cpuNow() - cpu0
	return nil
}

func bulkClient(spec loadSpec, st *lgState, lines encodedLog, clock warpClock, deadline time.Time, client int64) {
	c := oneConnClient()
	var body []byte
	var acks []int64
	var requests, accepted, failed, refused int64
	reqID := client << 40
	for i := 0; i < len(lines) && time.Now().Before(deadline); i += bulkBatch {
		batch := lines[i:min(i+bulkBatch, len(lines))]
		for len(batch) > 0 {
			reqID++
			now := time.Now()
			body = appendBody(body[:0], clock.at(now), batch)
			span := st.tr.start("server.POST /ingest", 0, reqID)
			code, reply, err := post(c, spec.Base, body)
			st.tr.end(span)
			acks = append(acks, int64(time.Since(now)))
			requests++
			accepted += int64(reply.Accepted)
			switch {
			case err != nil:
				failed++
				st.fail("POST /ingest: %v", err)
				batch = nil
			case code == http.StatusOK:
				batch = nil
			case code == http.StatusTooManyRequests:
				// A refusal is a fault on this workload; the unaccepted
				// suffix is resent after a short fixed pause.
				failed++
				refused++
				batch = batch[reply.Accepted:]
				time.Sleep(bulkRetryPause)
			default:
				failed++
				st.fail("POST /ingest: status %d: %s", code, reply.Error)
				batch = nil
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.res.AckNS = append(st.res.AckNS, acks...)
	st.res.Requests += requests
	st.res.Accepted += accepted
	st.res.Failed += failed
	st.res.Refused429 += refused
}

// schedule paces an open loop on one connection: request i is due at
// start + i×interval. A request's latency counts from when it was due,
// less the lateness of the generator's own timer: waiting for the previous
// request on the connection is the daemon's doing, a sleep that overshot
// the due time (~0.6 ms at the median on a VM) is the generator's, and is
// reported as its lateness instead.
type schedule struct {
	start    time.Time
	interval time.Duration
	prevDone time.Time
}

// wait sleeps until request i is due and returns its due time.
func (s *schedule) wait(i int) time.Time {
	due := s.start.Add(time.Duration(i) * s.interval)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return due
}

// record returns the latency of a request sent at sent and answered at
// done, and the generator's own lateness in sending it.
func (s *schedule) record(due, sent, done time.Time) (latency, late time.Duration) {
	var waited time.Duration
	if s.prevDone.After(due) {
		waited = s.prevDone.Sub(due)
	}
	late = sent.Sub(due) - waited
	s.prevDone = done
	return done.Sub(sent) + waited, late
}

// loadMixed is ingest_mixed: an open-loop writer at mixedRate requests/s
// of 1–5 entries each on one connection, and a reader rotating the read
// endpoints at readRate on a second connection. Both time each request
// from when it was due, so a stall also counts against the requests it
// delays.
func loadMixed(spec loadSpec, st *lgState) error {
	lines := encodeLog(genLog(subSeed(spec.Seed, 3), spec.LogScale))
	nWrites := int(spec.Seconds * mixedRate)
	sizes := mixedSizes(spec.Seed, nWrites)
	nReads := int(spec.Seconds * readRate)
	endpoints := []string{"/report", "/toplist", "/clusters"}
	if spec.History != nil {
		endpoints = append(endpoints, spec.History.Query)
	}

	start := time.Now().Add(10 * time.Millisecond)
	clock := warpClock{t0: start, base: loadBase, warp: mixedWarp}
	st.res.LoadStartNS = start.UnixNano()
	st.res.FirstSendNS = start.UnixNano()
	cpu0 := cpuNow()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := oneConnClient()
		sched := schedule{start: start, interval: time.Second / mixedRate}
		var body []byte
		cursor := 0
		batch := make([][]byte, 0, 5)
		acks := make([]int64, 0, nWrites)
		lates := make([]int64, 0, nWrites)
		var accepted, failed int64
		for i := 0; i < nWrites; i++ {
			due := sched.wait(i)
			batch = batch[:0]
			for k := 0; k < sizes[i]; k++ {
				batch = append(batch, lines[cursor])
				cursor = (cursor + 1) % len(lines)
			}
			now := time.Now()
			body = appendBody(body[:0], clock.at(now), batch)
			span := st.tr.start("server.POST /ingest", 0, int64(i+1))
			code, reply, err := post(c, spec.Base, body)
			st.tr.end(span)
			lat, late := sched.record(due, now, time.Now())
			acks = append(acks, int64(lat))
			lates = append(lates, int64(late))
			accepted += int64(reply.Accepted)
			if err != nil || code != http.StatusOK || reply.Accepted != len(batch) {
				failed++
				st.fail("POST /ingest: status %d, accepted %d of %d: %v %s", code, reply.Accepted, len(batch), err, reply.Error)
			}
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.res.AckNS, st.res.LateNS = acks, lates
		st.res.Requests += int64(nWrites)
		st.res.Accepted += accepted
		st.res.Failed += failed
	}()
	go func() {
		defer wg.Done()
		c := oneConnClient()
		sched := schedule{start: start, interval: time.Second / readRate}
		var lat []int64
		var failed int64
		for j := 0; j < nReads; j++ {
			due := sched.wait(j)
			path := endpoints[j%len(endpoints)]
			now := time.Now()
			span := st.tr.start("server.GET "+endpointName(path), 0, int64(1<<40+j))
			ok, why := getAndCheck(c, spec, path)
			st.tr.end(span)
			l, _ := sched.record(due, now, time.Now())
			lat = append(lat, int64(l))
			if !ok {
				failed++
				st.fail("GET %s: %s", path, why)
			}
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.res.ReadNS = lat
		st.res.Reads += int64(nReads)
		st.res.ReadsFailed += failed
	}()
	wg.Wait()
	st.res.LoadEndNS = time.Now().UnixNano()
	st.res.CPUNS = cpuNow() - cpu0
	return nil
}

func endpointName(path string) string {
	name, _, _ := strings.Cut(path, "?")
	return name
}

// getAndCheck reads one endpoint and checks it answered 200 with
// well-formed JSON; a /history answer must also equal the counts the
// benchmark computed from the same blocks.
func getAndCheck(c *http.Client, spec loadSpec, path string) (bool, string) {
	resp, err := c.Get(spec.Base + path)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("status %d", resp.StatusCode)
	}
	if !json.Valid(b) {
		return false, "malformed JSON"
	}
	if spec.History != nil && path == spec.History.Query {
		var h struct {
			Entries int `json:"entries"`
			Windows []struct {
				Start time.Time `json:"start"`
				Count int       `json:"count"`
			} `json:"windows"`
		}
		if err := json.Unmarshal(b, &h); err != nil {
			return false, err.Error()
		}
		var sig bytes.Buffer
		for _, w := range h.Windows {
			fmt.Fprintf(&sig, "%d:%d ", w.Start.Unix(), w.Count)
		}
		if h.Entries != spec.History.Entries || sig.String() != spec.History.Windows {
			return false, fmt.Sprintf("history has %d entries, the blocks' scan %d", h.Entries, spec.History.Entries)
		}
	}
	return true, ""
}
