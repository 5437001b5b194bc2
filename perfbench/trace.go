package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Parent is the
// ID of the span that caused it (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Source marks a span reconstructed from the program's own phase
	// timer rather than timed around a call by the benchmark.
	Source string `json:"source,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration((s.End - s.Start) * 1e9)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// timed runs fn inside a span when tracing, and times it either way.
func timed(t *tracer, name string, parent int, fn func()) time.Duration {
	if t != nil {
		return t.do(name, parent, fn)
	}
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// add records a finished span whose times were measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time, source string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Source: source,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration((s.End-s.Start)*1e9))
		}
	}
	return out
}

// writeFile writes the spans and the run's provenance as one JSON document.
func (t *tracer) writeFile(path string, prov map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"provenance": prov, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile, median and mean return 0 for an empty sample set (every
// mutation of a run failed, say), so the result line still encodes and
// reports the failures; JSON has no NaN.

// quantile returns the q-quantile (nearest rank) of xs, sorting a copy.
// +Inf entries stand for failed operations, which miss every limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
