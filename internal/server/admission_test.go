package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
)

// wedgedServer starts a one-shard server with a one-slot queue whose drain
// is stuck in a gated Emit and whose queue slot is taken, so the next
// entry finds no room. Closing the returned gate (once) lets the drain go.
func wedgedServer(t *testing.T) (s *Server, url string, line func(i int) string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{
		Stream:    stream.ShardedConfig{Shards: 1, Config: stream.Config{SessionGap: time.Minute}},
		QueueSize: 1,
		Emit:      func(logmodel.Log) { <-gate },
	})
	t.Cleanup(release) // runs before the server's own cleanup closes it

	base := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	cols := []string{"name", "age"}
	line = func(i int) string {
		tm := base
		if i > 0 {
			tm = base.Add(3*time.Minute + time.Duration(i)*time.Second)
		}
		return fmt.Sprintf(`{"time":%q,"user":"u","statement":"SELECT %s FROM Employees WHERE id = %d"}`+"\n",
			tm.Format(time.RFC3339), cols[i%2], i)
	}
	// Entry 1 closes entry 0's session, so the drain blocks in Emit.
	postIngest(t, ts.URL, bytes.NewBufferString(line(0)))
	postIngest(t, ts.URL, bytes.NewBufferString(line(1)))
	deadline := time.Now().Add(5 * time.Second)
	for s.qDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainer never wedged in Emit")
		}
		time.Sleep(time.Millisecond)
	}
	postIngest(t, ts.URL, bytes.NewBufferString(line(2))) // takes the slot
	return s, ts.URL, line, release
}

func postRaw(t *testing.T, url, body string) (int, ingestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", bytes.NewBufferString(body))
	if err != nil {
		t.Error(err)
		return 0, ingestResponse{}
	}
	defer resp.Body.Close()
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	return resp.StatusCode, ir
}

// TestAdmissionWaitsForRoom: a request that finds its queue full is held,
// not refused, when a drain frees room within admitWait — a short burst is
// absorbed — and nothing is counted as a rejection.
func TestAdmissionWaitsForRoom(t *testing.T) {
	s, url, line, release := wedgedServer(t)

	type result struct {
		code int
		ir   ingestResponse
	}
	done := make(chan result, 1)
	go func() {
		code, ir := postRaw(t, url, line(3)+line(4))
		done <- result{code, ir}
	}()
	select {
	case r := <-done:
		t.Fatalf("request answered %d (%+v) while its queue was full", r.code, r.ir)
	case <-time.After(admitWait / 5):
	}
	release()
	r := <-done
	if r.code != http.StatusOK || r.ir.Accepted != 2 {
		t.Fatalf("after room freed: status %d, %+v; want 200 with 2 accepted", r.code, r.ir)
	}
	if n := s.mRejectedFull.Value(); n != 0 {
		t.Errorf("ingest_rejected_full counted %d, want 0", n)
	}
}

// TestAdmissionWaitEndsOnClose: Close ends an admission wait at once; the
// request is refused with 429 and Close does not wait out admitWait.
func TestAdmissionWaitEndsOnClose(t *testing.T) {
	s, url, line, release := wedgedServer(t)

	done := make(chan int, 1)
	go func() {
		code, _ := postRaw(t, url, line(3))
		done <- code
	}()
	// Let the request reach its wait, then close.
	deadline := time.Now().Add(5 * time.Second)
	for s.room.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never waited for room")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	if code := <-done; code != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", code)
	}
	if d := time.Since(start); d >= admitWait {
		t.Errorf("wait ended %v after Close, want < %v", d, admitWait)
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := s.mRejectedFull.Value(); n != 1 {
		t.Errorf("ingest_rejected_full counted %d, want 1", n)
	}
}

// TestReadAfterAck: the read endpoints wait until every acknowledged entry
// is applied and emitted; /healthz answers at once.
func TestReadAfterAck(t *testing.T) {
	s, url, _, release := wedgedServer(t)

	var h HealthPayload
	getJSON(t, url+"/healthz", &h) // must not block on the wedged drain
	if h.QueueDepth != 1 {
		t.Errorf("healthz queue depth %d, want 1", h.QueueDepth)
	}

	done := make(chan ReportPayload, 1)
	go func() {
		var p ReportPayload
		defer func() { done <- p }()
		resp, err := http.Get(url + "/report")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("/report answered before the acknowledged entries were applied")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if p := <-done; p.Stream.In != 3 {
		t.Errorf("/report after the barrier saw %d entries, want all 3 acknowledged", p.Stream.In)
	}

	// The method form of the barrier, bounded by its context.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitApplied(ctx); err != nil {
		t.Fatal(err)
	}
}
