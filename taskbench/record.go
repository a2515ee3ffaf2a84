package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// sample is one timed client call: when it started, relative to the start of
// the timed phase, and how long it took.
type sample struct {
	at, dur time.Duration
}

// span is one traced call into a layer. Spans of one task share Task; Parent
// names the span (by name) that caused it, "" for a loop-level call.
type span struct {
	Name   string `json:"name"`
	Task   int64  `json:"task"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects the end-to-end op samples of the timed phase and, in a
// traced run, the spans around every call into a layer. A nil *recorder
// records nothing (warm-up runs through the same code with rec == nil).
type recorder struct {
	t0    time.Time
	trace bool

	mu        sync.Mutex
	ops       map[string][]sample
	spans     []span
	attempted int64
	failed    int64
	errs      []string // the first few failures, for the diagnostics
}

func newRecorder(trace bool) *recorder {
	return &recorder{t0: time.Now(), trace: trace, ops: make(map[string][]sample)}
}

// call records one client call into layer name (op "" keeps it out of the
// end-to-end op samples: reports and result pops are timed as part of other
// metrics). It counts the call as attempted, and as failed when err != nil.
func (r *recorder) call(op, name string, task int64, start time.Time, err error) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, name+": "+err.Error())
		}
	} else if op != "" {
		r.ops[op] = append(r.ops[op], sample{at: start.Sub(r.t0), dur: end.Sub(start)})
	}
	if r.trace {
		r.spans = append(r.spans, span{Name: name, Task: task,
			Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	}
	r.mu.Unlock()
}

// observe adds a latency sample that is not one client call (the result
// latency spans a Report and the pop that delivers it).
func (r *recorder) observe(op string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops[op] = append(r.ops[op], sample{at: start.Sub(r.t0), dur: end.Sub(start)})
	r.mu.Unlock()
}

// writeSpans writes the spans as JSON lines to path.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// durs returns the sorted durations of op's samples, optionally only those
// that started in [from, to).
func (r *recorder) durs(op string, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for _, s := range r.ops[op] {
		if s.at >= from && s.at < to {
			out = append(out, s.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileMS is the p-quantile of sorted durations in ms, interpolating
// linearly between order statistics (0 for no samples).
func quantileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[hi]-sorted[lo])
	return v / float64(time.Millisecond)
}

// spanCostUS measures what recording one span costs, in µs: the tracing
// overhead a traced run adds per traced call.
func spanCostUS() float64 {
	const n = 20000
	r := newRecorder(true)
	t := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.call("", "cost", int64(i), t, nil)
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1e3
}
