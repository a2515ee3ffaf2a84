package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"osprey/internal/core"
)

// resultOf is the no-op task: its result is a pure function of its payload,
// so every check can recompute what a task must have produced.
func resultOf(payload string) string { return "done:" + payload }

// ledger is the benchmark's record of what it handed the program and what
// came back, for the output checks. Claims, reports and collections are
// recorded as they happen and verified after the run, so a task claimed
// before its submitter recorded the id is still checked.
type ledger struct {
	mu        sync.Mutex
	payload   map[int64]string    // submitted, by id
	claims    map[int64]int       // claim count per id
	claimed   []core.Task         // every claimed task, in claim order
	reported  map[int64]string    // result handed to Report
	reportAt  map[int64]time.Time // when that Report call started
	collected map[int64]string    // result delivered to the submitter
	problems  []string            // out-of-band failures seen during the run
	corrupt   bool                // test hook: falsify the first collected result
}

func newLedger() *ledger {
	return &ledger{
		payload:   make(map[int64]string),
		claims:    make(map[int64]int),
		reported:  make(map[int64]string),
		reportAt:  make(map[int64]time.Time),
		collected: make(map[int64]string),
	}
}

func (l *ledger) submitted(id int64, payload string) {
	l.mu.Lock()
	l.payload[id] = payload
	l.mu.Unlock()
}

func (l *ledger) claim(tasks []core.Task) {
	l.mu.Lock()
	for _, t := range tasks {
		l.claims[t.ID]++
		l.claimed = append(l.claimed, t)
	}
	l.mu.Unlock()
}

// report records the result about to be reported for id and returns it.
func (l *ledger) report(id int64, result string, at time.Time) {
	l.mu.Lock()
	l.reported[id] = result
	l.reportAt[id] = at
	l.mu.Unlock()
}

// collect records a result delivered to its submitter and returns when the
// Report that produced it started (zero if it was never reported).
func (l *ledger) collect(id int64, result string) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.corrupt {
		result += "#corrupted"
		l.corrupt = false
	}
	if _, dup := l.collected[id]; dup {
		l.problems = append(l.problems, fmt.Sprintf("result of task %d delivered twice", id))
	}
	l.collected[id] = result
	return l.reportAt[id]
}

func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// verify runs the output checks and returns one line per failure (at most
// a few per kind, plus a count):
//   - every task is claimed exactly once;
//   - each claimed payload is what was submitted for that id;
//   - each reported result is the no-op result of the claimed payload;
//   - each collected result equals what was reported for that id.
func (l *ledger) verify() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	add := func(kind string, bad []string) {
		sort.Strings(bad)
		for i, b := range bad {
			if i == 3 {
				out = append(out, fmt.Sprintf("%s: %d more", kind, len(bad)-3))
				break
			}
			out = append(out, kind+": "+b)
		}
	}
	var dup, payload, reported, collected []string
	for id, n := range l.claims {
		if n != 1 {
			dup = append(dup, fmt.Sprintf("task %d claimed %d times", id, n))
		}
	}
	for _, t := range l.claimed {
		want, ok := l.payload[t.ID]
		if !ok {
			payload = append(payload, fmt.Sprintf("task %d was never submitted", t.ID))
		} else if t.Payload != want {
			payload = append(payload, fmt.Sprintf("task %d payload %q, submitted %q", t.ID, t.Payload, want))
		}
	}
	for id, res := range l.reported {
		if p, ok := l.payload[id]; ok && res != resultOf(p) {
			reported = append(reported, fmt.Sprintf("task %d reported %q", id, res))
		}
	}
	for id, res := range l.collected {
		want, ok := l.reported[id]
		if !ok {
			collected = append(collected, fmt.Sprintf("task %d collected but never reported", id))
		} else if res != want {
			collected = append(collected, fmt.Sprintf("task %d collected %q, reported %q", id, res, want))
		}
	}
	add("claimed more than once", dup)
	add("claimed payload mismatch", payload)
	add("reported result mismatch", reported)
	add("collected result mismatch", collected)
	return append(out, l.problems...)
}
