package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestTaskPathProbesNeverScan: the task-path statements whose index probe
// misses by construction — the dedup check of a fresh key, reprioritizing or
// canceling a task that is no longer queued, popping results none of which
// are ready, popping an empty work type — resolve to an index path and
// leave every table's full-scan counter where it was. The statement texts'
// paths are pinned through Explain as well, so a planner change that turns
// a miss back into a scan fails here by name rather than as a slowdown.
func TestTaskPathProbesNeverScan(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 50; i++ {
		submit(t, db, "exp", 1, fmt.Sprint("p", i), WithDedupKey(fmt.Sprint("key-", i)))
	}
	popped, err := db.QueryTasks(within(t, time.Second), 1, 5, "pool")
	if err != nil || len(popped.Tasks) != 5 {
		t.Fatalf("QueryTasks: %v (%d tasks)", err, len(popped.Tasks))
	}
	var running []int64
	for _, task := range popped.Tasks {
		running = append(running, task.ID)
	}

	paths := []struct {
		sql  string
		args []any
		want string
	}{
		{"SELECT task_id FROM eq_tasks WHERE dedup_key = ?", []any{"absent"}, "hash eq_tasks(dedup_key)"},
		{"UPDATE eq_out_q SET priority = ? WHERE task_id = ?", []any{9, running[0]}, "pk eq_out_q(task_id)"},
		{"DELETE FROM eq_out_q WHERE task_id = ?", []any{running[0]}, "pk eq_out_q(task_id)"},
		{popResultsPick, []any{running[0], running[1], 2}, "pk eq_in_q(task_id)"},
	}
	for _, p := range paths {
		got, err := db.eng.Explain(p.sql, p.args...)
		if err != nil || got != p.want {
			t.Errorf("Explain(%q) = %q, %v; want %q", p.sql, got, err, p.want)
		}
	}

	before := db.eng.FullScans()
	ctx := context.Background()
	if _, err := db.Submit(ctx, "exp", 1, "fresh", WithDedupKey("absent")); err != nil {
		t.Fatalf("dedup-miss Submit: %v", err)
	}
	if _, err := db.UpdatePriorities(ctx, running, []int{9}); err != nil {
		t.Fatalf("UpdatePriorities on running tasks: %v", err)
	}
	if res, err := db.CancelTasks(ctx, running); err != nil || res.Count != 0 {
		t.Fatalf("CancelTasks on running tasks: %v (canceled %d)", err, res.Count)
	}
	if _, err := db.PopResults(within(t, 20*time.Millisecond), running, 2); !errors.Is(err, ErrTimeout) {
		t.Fatalf("PopResults with no results ready: %v, want ErrTimeout", err)
	}
	if _, err := db.QueryTasks(within(t, 20*time.Millisecond), 7, 3, "pool"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("QueryTasks on an empty work type: %v, want ErrTimeout", err)
	}
	after := db.eng.FullScans()
	for table, n := range after {
		if n != before[table] {
			t.Errorf("%s: %d full scans during miss probes (before %d, after %d)", table, n-before[table], before[table], n)
		}
	}
}
