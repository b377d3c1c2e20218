package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// call into the program's public functions. Name is "<layer>.<operation>";
// the layer is the program module the call enters. Spans of one request
// share Req.
type Span struct {
	Proc    string `json:"proc"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Layer is the module part of the span name.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	proc string
	mu   sync.Mutex
	next int64
	open map[int64]int // id → index in spans
	sp   []Span
}

func newTracer(proc string) *tracer {
	return &tracer{proc: proc, open: map[int64]int{}}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = len(t.sp)
	t.sp = append(t.sp, Span{Proc: t.proc, ID: t.next, Parent: parent, Req: req, Name: name, StartNS: now})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.sp[i].EndNS = now
		delete(t.open, id)
	}
}

func (t *tracer) spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.sp...)
}

// selfTimes returns each layer's self time per process: a span's duration
// minus the part of it its child spans cover, summed per layer. Spans are
// keyed by (proc, id), so spans merged from several processes stay apart.
func selfTimes(spans []Span) map[string]map[string]time.Duration {
	type key struct {
		proc string
		id   int64
	}
	child := map[key]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.EndNS > 0 {
			child[key{s.Proc, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	out := map[string]map[string]time.Duration{}
	for _, s := range spans {
		if s.EndNS == 0 {
			continue
		}
		self := s.EndNS - s.StartNS - child[key{s.Proc, s.ID}]
		if self < 0 {
			self = 0
		}
		if out[s.Proc] == nil {
			out[s.Proc] = map[string]time.Duration{}
		}
		out[s.Proc][s.Layer()] += time.Duration(self)
	}
	return out
}

// writeSpans writes the run's spans as one JSON array.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints one self-time table per process, largest layer
// first. Concurrent spans (two load-generator clients) add up past wall
// time: the table shows where time was spent, not elapsed time.
func printSelfTimes(w io.Writer, self map[string]map[string]time.Duration) {
	procs := make([]string, 0, len(self))
	for p := range self {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, p := range procs {
		layers := self[p]
		names := make([]string, 0, len(layers))
		var total time.Duration
		for n, d := range layers {
			names = append(names, n)
			total += d
		}
		sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
		fmt.Fprintf(w, "self time by layer, %s spans (total %.1f ms):\n", p, float64(total)/1e6)
		for _, n := range names {
			fmt.Fprintf(w, "  %-12s %10.2f ms  %5.1f%%\n", n, float64(layers[n])/1e6, 100*float64(layers[n])/float64(max(total, 1)))
		}
	}
}
