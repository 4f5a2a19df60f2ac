package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request (or one cluster round) share Req;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

// maxSpans bounds the tracer's memory; spans past it are counted only.
const maxSpans = 400_000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when not recorded).
func (tr *tracer) begin(name string, req uint64, parent int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(tr.spans) - 1
}

func (tr *tracer) end(idx int) {
	if tr == nil || idx < 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[idx].End = now
	tr.mu.Unlock()
}

// record adds a closed span measured by the caller.
func (tr *tracer) record(name string, req uint64, parent int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()})
}

// selfTimes sums, per span name, the span's duration minus the time its
// direct children cover, and counts the spans.
func (tr *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	if tr == nil {
		return self, count
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		if s.End == 0 {
			continue
		}
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as NDJSON.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
