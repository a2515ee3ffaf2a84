package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
)

// Depth-sensitive minisql statements, timed on an engine restored from the
// workload's post-run snapshot so the probes cannot disturb the run.
const (
	probeDedup  = "SELECT task_id FROM eq_tasks WHERE dedup_key = ?"
	probeTopN   = "SELECT task_id, priority FROM eq_out_q WHERE work_type = ? ORDER BY priority DESC, task_id ASC LIMIT ?"
	probeInsert = "INSERT INTO eq_out_q (task_id, work_type, priority) VALUES (?, ?, ?)"
	probeDelete = "DELETE FROM eq_out_q WHERE task_id = ?"
	probeUpdate = "UPDATE eq_out_q SET priority = ? WHERE task_id = ?"
)

// probe restores db's snapshot into a fresh engine and times each statement
// shape, reporting the median in µs. missID is a task that exists but is not
// queued (an already-claimed id); freeID is an id no task has.
func probe(db *core.DB, missID, freeID int64) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		return nil, err
	}
	eng := minisql.NewEngine()
	if err := eng.Restore(&buf); err != nil {
		return nil, err
	}
	top, err := eng.Exec(probeTopN, workType, 1)
	if err != nil {
		return nil, err
	}
	hitID := freeID + 1
	if len(top.Rows) > 0 {
		hitID = top.Rows[0][0].AsInt()
	} else if _, err := eng.Exec(probeInsert, hitID, workType, 50); err != nil {
		// The shallow queue drains to empty: give the hit probe a row.
		return nil, err
	}
	out := map[string]float64{}
	var perr error
	time1 := func(name string, fn func(i int) error) {
		if perr != nil {
			return
		}
		var ds []time.Duration
		deadline := time.Now().Add(300 * time.Millisecond)
		for i := 0; i < 200 && (i < 5 || time.Now().Before(deadline)); i++ {
			start := time.Now()
			if err := fn(i); err != nil {
				perr = fmt.Errorf("probe %s: %w", name, err)
				return
			}
			ds = append(ds, time.Since(start))
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[name] = float64(ds[len(ds)/2].Nanoseconds()) / 1e3
	}
	exec := func(sql string, args ...any) error {
		_, err := eng.Exec(sql, args...)
		return err
	}
	time1("minisql.dedup_miss_us", func(i int) error {
		return exec(probeDedup, fmt.Sprintf("absent-%d", i))
	})
	time1("minisql.topn_us", func(int) error { return exec(probeTopN, workType, poolBatch) })
	time1("minisql.outq_churn_us", func(int) error {
		if err := exec(probeInsert, freeID, workType, 50); err != nil {
			return err
		}
		return exec(probeDelete, freeID)
	})
	time1("minisql.outq_update_hit_us", func(i int) error { return exec(probeUpdate, i%100, hitID) })
	time1("minisql.outq_update_miss_us", func(i int) error { return exec(probeUpdate, i%100, missID) })
	return out, perr
}
