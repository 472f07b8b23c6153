package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Start and End are nanoseconds since the tracer's
// epoch; Parent 0 marks a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording costs an append and no I/O.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(trace string, parent int, name, layer string) int {
	return t.add(span{Trace: trace, Parent: parent, Name: name, Layer: layer, Start: t.now()})
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	e := t.now()
	t.mu.Lock()
	t.spans[id-1].End = e
	t.mu.Unlock()
}

// add records a span whose bounds are already known (for example the
// server-side queue and engine intervals taken from a job view) and
// returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(w time.Time) int64 { return w.Sub(t.epoch).Nanoseconds() }

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its children
// cover. Children may overlap each other (concurrent calls) or stick out
// of the parent; only the union of their intervals inside the parent is
// subtracted, so self time is never negative and never counts a covered
// instant twice.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}
