package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"odr/internal/workload"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"` // since the recorder started
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay no tracing cost.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span that ran from start to end.
func (r *recorder) add(name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

// time runs fn inside a span and returns its duration in seconds.
func (r *recorder) time(name, parent string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(name, parent, start, end)
	return end.Sub(start).Seconds(), err
}

// merge appends another process's spans under a prefix, shifted so they
// start at offset seconds on this recorder's clock.
func (r *recorder) merge(prefix string, offset float64, spans []span) {
	for _, sp := range spans {
		sp.Name = prefix + sp.Name
		if sp.Parent != "" {
			sp.Parent = prefix + sp.Parent
		}
		sp.Start += offset
		sp.End += offset
		r.spans = append(r.spans, sp)
	}
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timedSource measures the time its consumer spends inside Next: the
// share of a replay spent waiting on the reader (decode or generation).
type timedSource struct {
	src  workload.RequestSource
	busy time.Duration
}

// sizedTimedSource keeps the wrapped source's Sizer hint, so timing a
// source does not change how the replay engine pre-sizes its buffers.
type sizedTimedSource struct {
	*timedSource
	workload.Sizer
}

// timeSource wraps src in a timedSource, passing its Sizer through.
func timeSource(src workload.RequestSource) (workload.RequestSource, *timedSource) {
	ts := &timedSource{src: src}
	if sz, ok := src.(workload.Sizer); ok {
		return sizedTimedSource{ts, sz}, ts
	}
	return ts, ts
}

func (s *timedSource) Next() (int, workload.Request, bool) {
	t := time.Now()
	i, req, ok := s.src.Next()
	s.busy += time.Since(t)
	return i, req, ok
}

func (s *timedSource) Err() error { return s.src.Err() }

// msTruncSource truncates request times to the millisecond precision the
// bin trace stores, so an in-memory replay is comparable byte for byte
// with one fed from the trace file.
type msTruncSource struct {
	src workload.RequestSource
}

func (s msTruncSource) Next() (int, workload.Request, bool) {
	i, req, ok := s.src.Next()
	req.Time = req.Time.Truncate(time.Millisecond)
	return i, req, ok
}

func (s msTruncSource) Err() error { return s.src.Err() }
