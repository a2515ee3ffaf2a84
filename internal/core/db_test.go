package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const (
	tick    = 5 * time.Millisecond
	waitMax = 2 * time.Second
)

var bg = context.Background()

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB()
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// within returns a polling context that expires after d.
func within(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// submit inserts one task and returns its id, failing the test on error.
func submit(t *testing.T, db *DB, expID string, workType int, payload string, opts ...SubmitOption) int64 {
	t.Helper()
	res, err := db.Submit(bg, expID, workType, payload, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return res.ID
}

func TestSubmitAndPop(t *testing.T) {
	db := newTestDB(t)
	id := submit(t, db, "exp1", 1, `{"x": 1}`)
	if id != 1 {
		t.Fatalf("task id = %d, want 1", id)
	}
	res, err := db.QueryTasks(within(t, waitMax), 1, 1, "poolA")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	tasks := res.Tasks
	if len(tasks) != 1 || tasks[0].ID != id || tasks[0].Payload != `{"x": 1}` {
		t.Fatalf("tasks = %+v", tasks)
	}
	if tasks[0].Status != StatusRunning || tasks[0].Pool != "poolA" {
		t.Fatalf("popped task state = %+v", tasks[0])
	}
	got, err := db.GetTask(bg, id)
	if err != nil || got.Status != StatusRunning {
		t.Fatalf("GetTask = %+v, %v", got, err)
	}
}

func TestPriorityOrder(t *testing.T) {
	db := newTestDB(t)
	low := submit(t, db, "e", 1, "low", WithPriority(1))
	high := submit(t, db, "e", 1, "high", WithPriority(10))
	mid := submit(t, db, "e", 1, "mid", WithPriority(5))
	res, err := db.QueryTasks(within(t, waitMax), 1, 3, "p")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	tasks := res.Tasks
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	wantOrder := []int64{high, mid, low}
	for i, task := range tasks {
		if task.ID != wantOrder[i] {
			t.Fatalf("pop order = %v, want %v", []int64{tasks[0].ID, tasks[1].ID, tasks[2].ID}, wantOrder)
		}
	}
}

func TestPriorityTieBreaksByTaskID(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, submit(t, db, "e", 1, fmt.Sprint(i)))
	}
	res, err := db.QueryTasks(within(t, waitMax), 1, 5, "p")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	for i, task := range res.Tasks {
		if task.ID != ids[i] {
			t.Fatalf("FIFO order violated at %d: %+v", i, res.Tasks)
		}
	}
}

func TestWorkTypeIsolation(t *testing.T) {
	db := newTestDB(t)
	submit(t, db, "e", 1, "sim")
	gpuID := submit(t, db, "e", 2, "gpu")
	res, err := db.QueryTasks(within(t, waitMax), 2, 5, "gpu-pool")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	if len(res.Tasks) != 1 || res.Tasks[0].ID != gpuID {
		t.Fatalf("work-type filter broken: %+v", res.Tasks)
	}
}

func TestQueryTimeout(t *testing.T) {
	db := newTestDB(t)
	start := time.Now()
	_, err := db.QueryTasks(within(t, 50*time.Millisecond), 1, 1, "p")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("returned too early: %v", elapsed)
	}
}

func TestReportAndQueryResult(t *testing.T) {
	db := newTestDB(t)
	id := submit(t, db, "e", 1, "payload")
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	if _, err := db.Report(bg, popped.Tasks[0].ID, 1, `{"y": 2}`); err != nil {
		t.Fatalf("Report: %v", err)
	}
	res, err := db.QueryResult(within(t, waitMax), id)
	if err != nil {
		t.Fatalf("QueryResult: %v", err)
	}
	if res.Result != `{"y": 2}` {
		t.Fatalf("result = %q", res.Result)
	}
	got, _ := db.GetTask(bg, id)
	if got.Status != StatusComplete {
		t.Fatalf("status = %s, want complete", got.Status)
	}
	if got.Stopped.Before(got.Started) {
		t.Fatalf("stop %v before start %v", got.Stopped, got.Started)
	}
	// Result is popped: second query times out.
	if _, err := db.QueryResult(within(t, 30*time.Millisecond), id); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second QueryResult err = %v, want timeout", err)
	}
}

func TestQueryResultBlocksUntilReport(t *testing.T) {
	db := newTestDB(t)
	id := submit(t, db, "e", 1, "p")
	done := make(chan string, 1)
	go func() {
		res, err := db.QueryResult(within(t, waitMax), id)
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- res.Result
	}()
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	time.Sleep(10 * time.Millisecond)
	db.Report(bg, popped.Tasks[0].ID, 1, "answer")
	select {
	case res := <-done:
		if res != "answer" {
			t.Fatalf("result = %q", res)
		}
	case <-time.After(waitMax):
		t.Fatal("QueryResult never returned")
	}
}

func TestPopResultsBatch(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, submit(t, db, "e", 1, fmt.Sprint(i)))
	}
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 6, "p")
	for _, task := range popped.Tasks[:4] {
		db.Report(bg, task.ID, 1, fmt.Sprintf("r%d", task.ID))
	}
	res, err := db.PopResults(within(t, waitMax), ids, 3)
	if err != nil {
		t.Fatalf("PopResults: %v", err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3 (max)", len(res.Results))
	}
	res2, err := db.PopResults(within(t, waitMax), ids, 10)
	if err != nil {
		t.Fatalf("PopResults 2: %v", err)
	}
	if len(res2.Results) != 1 {
		t.Fatalf("got %d more results, want 1", len(res2.Results))
	}
	for _, r := range append(res.Results, res2.Results...) {
		if r.Result != fmt.Sprintf("r%d", r.ID) {
			t.Fatalf("mismatched result %+v", r)
		}
	}
}

func TestPopResultsIgnoresForeignTasks(t *testing.T) {
	db := newTestDB(t)
	mine := submit(t, db, "e", 1, "m")
	other := submit(t, db, "e", 1, "o")
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 2, "p")
	for _, task := range popped.Tasks {
		db.Report(bg, task.ID, 1, "done")
	}
	res, err := db.PopResults(within(t, waitMax), []int64{mine}, 5)
	if err != nil || len(res.Results) != 1 || res.Results[0].ID != mine {
		t.Fatalf("PopResults = %+v, %v", res.Results, err)
	}
	// The other result is still poppable.
	res, err = db.PopResults(within(t, waitMax), []int64{other}, 5)
	if err != nil || len(res.Results) != 1 || res.Results[0].ID != other {
		t.Fatalf("other result = %+v, %v", res.Results, err)
	}
}

func TestStatusesAndCounts(t *testing.T) {
	db := newTestDB(t)
	a := submit(t, db, "e", 1, "a")
	b := submit(t, db, "e", 1, "b")
	c := submit(t, db, "other", 1, "c")
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	db.Report(bg, popped.Tasks[0].ID, 1, "done")
	sts, err := db.Statuses(bg, []int64{a, b, c, 999})
	if err != nil {
		t.Fatalf("Statuses: %v", err)
	}
	if len(sts) != 3 {
		t.Fatalf("statuses = %v (missing ids must be absent)", sts)
	}
	if sts[a] != StatusComplete || sts[b] != StatusQueued {
		t.Fatalf("statuses = %v", sts)
	}
	counts, err := db.Counts(bg, "e")
	if err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if counts[StatusComplete] != 1 || counts[StatusQueued] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	all, _ := db.Counts(bg, "")
	if all[StatusQueued] != 2 {
		t.Fatalf("all counts = %v", all)
	}
}

func TestUpdatePriorities(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, db, "e", 1, fmt.Sprint(i)))
	}
	// Pop one so it is no longer eligible.
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	res, err := db.UpdatePriorities(bg, ids, []int{40, 10, 30, 20})
	if err != nil {
		t.Fatalf("UpdatePriorities: %v", err)
	}
	if res.Count != 3 {
		t.Fatalf("updated %d, want 3 (one task already running)", res.Count)
	}
	prios, _ := db.Priorities(bg, ids)
	if len(prios) != 3 {
		t.Fatalf("priorities = %v", prios)
	}
	if prios[ids[2]] != 30 {
		t.Fatalf("priorities = %v", prios)
	}
	// Remaining tasks pop in the new order.
	rest, err := db.QueryTasks(within(t, waitMax), 1, 3, "p")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	want := []int64{ids[2], ids[3], ids[1]}
	if popped.Tasks[0].ID == ids[0] {
		// ids[0] was popped first (FIFO), rest sorted 30, 20, 10.
		for i, task := range rest.Tasks {
			if task.ID != want[i] {
				t.Fatalf("order after reprio = %v, want %v",
					[]int64{rest.Tasks[0].ID, rest.Tasks[1].ID, rest.Tasks[2].ID}, want)
			}
		}
	}
}

func TestUpdatePrioritiesSingleValue(t *testing.T) {
	db := newTestDB(t)
	var ids []int64
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, db, "e", 1, "x"))
	}
	res, err := db.UpdatePriorities(bg, ids, []int{7})
	if err != nil || res.Count != 3 {
		t.Fatalf("UpdatePriorities = %d, %v", res.Count, err)
	}
	prios, _ := db.Priorities(bg, ids)
	for _, id := range ids {
		if prios[id] != 7 {
			t.Fatalf("prios = %v", prios)
		}
	}
	if _, err := db.UpdatePriorities(bg, ids, []int{1, 2}); err == nil {
		t.Fatal("mismatched priority slice length must error")
	}
}

func TestCancelTasks(t *testing.T) {
	db := newTestDB(t)
	a := submit(t, db, "e", 1, "a")
	b := submit(t, db, "e", 1, "b")
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	running := popped.Tasks[0].ID
	res, err := db.CancelTasks(bg, []int64{a, b})
	if err != nil {
		t.Fatalf("CancelTasks: %v", err)
	}
	if res.Count != 1 {
		t.Fatalf("canceled %d, want 1 (task %d already running)", res.Count, running)
	}
	st, _ := db.Statuses(bg, []int64{a, b})
	if st[running] != StatusRunning {
		t.Fatalf("running task was canceled: %v", st)
	}
	var canceledID int64 = a
	if running == a {
		canceledID = b
	}
	if st[canceledID] != StatusCanceled {
		t.Fatalf("statuses = %v", st)
	}
	// Canceled task is not poppable.
	if _, err := db.QueryTasks(within(t, 30*time.Millisecond), 1, 1, "p"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("canceled task still in queue: %v", err)
	}
}

func TestRequeueRunning(t *testing.T) {
	db := newTestDB(t)
	id := submit(t, db, "e", 1, "x", WithPriority(42))
	if _, err := db.QueryTasks(within(t, waitMax), 1, 1, "crashed-pool"); err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	res, err := db.RequeueRunning(bg, "crashed-pool")
	if err != nil || res.Count != 1 {
		t.Fatalf("RequeueRunning = %d, %v", res.Count, err)
	}
	popped, err := db.QueryTasks(within(t, waitMax), 1, 1, "fresh-pool")
	if err != nil {
		t.Fatalf("re-pop: %v", err)
	}
	if popped.Tasks[0].ID != id || popped.Tasks[0].Priority != 42 {
		t.Fatalf("requeued task = %+v (priority must survive)", popped.Tasks[0])
	}
	// Completed tasks are not requeued.
	db.Report(bg, id, 1, "done")
	res, _ = db.RequeueRunning(bg, "fresh-pool")
	if res.Count != 0 {
		t.Fatalf("requeued %d completed tasks", res.Count)
	}
}

func TestTags(t *testing.T) {
	db := newTestDB(t)
	id := submit(t, db, "e", 1, "x", WithTags("gpr", "round-1"))
	tags, err := db.Tags(bg, id)
	if err != nil {
		t.Fatalf("Tags: %v", err)
	}
	if len(tags) != 2 || tags[0] != "gpr" || tags[1] != "round-1" {
		t.Fatalf("tags = %v", tags)
	}
	other := submit(t, db, "e", 1, "y")
	tags, _ = db.Tags(bg, other)
	if len(tags) != 0 {
		t.Fatalf("untagged task has tags %v", tags)
	}
}

func TestConcurrentPoolsNoDuplicatePop(t *testing.T) {
	db := newTestDB(t)
	const nTasks = 200
	for i := 0; i < nTasks; i++ {
		submit(t, db, "e", 1, fmt.Sprint(i))
	}
	var mu sync.Mutex
	seen := make(map[int64]string)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pool := fmt.Sprintf("pool%d", p)
			for {
				ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
				res, err := db.QueryTasks(ctx, 1, 5, pool)
				cancel()
				if errors.Is(err, ErrTimeout) {
					return
				}
				if err != nil {
					t.Errorf("QueryTasks: %v", err)
					return
				}
				mu.Lock()
				for _, task := range res.Tasks {
					if prev, dup := seen[task.ID]; dup {
						t.Errorf("task %d popped by both %s and %s", task.ID, prev, pool)
					}
					seen[task.ID] = pool
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if len(seen) != nTasks {
		t.Fatalf("popped %d unique tasks, want %d", len(seen), nTasks)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryTasks(within(t, time.Minute), 1, 1, "p")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	db.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(waitMax):
		t.Fatal("Close did not wake waiter")
	}
	if _, err := db.Submit(bg, "e", 1, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestSnapshotRestoreWorkflowState(t *testing.T) {
	db := newTestDB(t)
	a := submit(t, db, "e", 1, "a", WithPriority(3))
	b := submit(t, db, "e", 1, "b")
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 1, "p")
	done := popped.Tasks[0].ID
	db.Report(bg, done, 1, "done")

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	db2, err := RestoreDB(&buf)
	if err != nil {
		t.Fatalf("RestoreDB: %v", err)
	}
	defer db2.Close()
	st, _ := db2.Statuses(bg, []int64{a, b})
	if st[done] != StatusComplete {
		t.Fatalf("restored statuses = %v", st)
	}
	// Result still poppable, remaining task still queued, ids keep counting.
	if res, err := db2.QueryResult(within(t, waitMax), done); err != nil || res.Result != "done" {
		t.Fatalf("restored result = %q, %v", res.Result, err)
	}
	rest, err := db2.QueryTasks(within(t, waitMax), 1, 5, "p2")
	if err != nil || len(rest.Tasks) != 1 {
		t.Fatalf("restored queue pop = %+v, %v", rest.Tasks, err)
	}
	if id3 := submit(t, db2, "e", 1, "c"); id3 != 3 {
		t.Fatalf("id after restore = %d, want 3", id3)
	}
}

func TestReportUnknownTask(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Report(bg, 12345, 1, "x"); err == nil {
		t.Fatal("reporting an unknown task must error")
	}
}

func TestQueryTasksValidatesN(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.QueryTasks(within(t, tick), 1, 0, "p"); err == nil {
		t.Fatal("n=0 must error")
	}
}

// Property: for any set of priorities, popping all tasks yields them in
// non-increasing priority order with ids ascending within equal priorities.
func TestPropertyPopOrdering(t *testing.T) {
	f := func(prios []int8) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 64 {
			prios = prios[:64]
		}
		db, err := NewDB()
		if err != nil {
			return false
		}
		defer db.Close()
		for i, p := range prios {
			if _, err := db.Submit(bg, "e", 1, fmt.Sprint(i), WithPriority(int(p))); err != nil {
				return false
			}
		}
		res, err := db.QueryTasks(within(t, waitMax), 1, len(prios), "p")
		tasks := res.Tasks
		if err != nil || len(tasks) != len(prios) {
			return false
		}
		for i := 1; i < len(tasks); i++ {
			if tasks[i].Priority > tasks[i-1].Priority {
				return false
			}
			if tasks[i].Priority == tasks[i-1].Priority && tasks[i].ID < tasks[i-1].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every submitted task is eventually either completed exactly once
// or still queued — no loss, no duplication — under concurrent pop/report.
func TestPropertyConservation(t *testing.T) {
	db := newTestDB(t)
	const n = 120
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = submit(t, db, "e", 1, fmt.Sprint(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := fmt.Sprintf("w%d", w)
			for {
				ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
				res, err := db.QueryTasks(ctx, 1, 3, pool)
				cancel()
				if err != nil {
					return
				}
				for _, task := range res.Tasks {
					if _, err := db.Report(bg, task.ID, 1, "ok"); err != nil {
						t.Errorf("report: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	counts, _ := db.Counts(bg, "e")
	if counts[StatusComplete] != n {
		t.Fatalf("counts = %v, want %d complete", counts, n)
	}
	res, err := db.PopResults(within(t, waitMax), ids, n)
	if err != nil || len(res.Results) != n {
		t.Fatalf("PopResults got %d results, err %v", len(res.Results), err)
	}
}

func TestSubmitTasksBatch(t *testing.T) {
	db := newTestDB(t)
	res, err := db.SubmitBatch(bg, "e", 1, []string{"a", "b", "c"}, nil, nil)
	ids := res.IDs
	if err != nil || len(ids) != 3 {
		t.Fatalf("SubmitBatch = %v, %v", ids, err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not consecutive: %v", ids)
		}
	}
	popped, err := db.QueryTasks(within(t, waitMax), 1, 3, "p")
	tasks := popped.Tasks
	if err != nil || len(tasks) != 3 {
		t.Fatalf("QueryTasks after batch = %d, %v", len(tasks), err)
	}
	if tasks[0].Payload != "a" || tasks[2].Payload != "c" {
		t.Fatalf("payload order = %v %v %v", tasks[0].Payload, tasks[1].Payload, tasks[2].Payload)
	}
}

func TestSubmitTasksBatchPriorities(t *testing.T) {
	db := newTestDB(t)
	// Per-task priorities apply.
	res, err := db.SubmitBatch(bg, "e", 1, []string{"low", "high"}, []int{1, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	popped, _ := db.QueryTasks(within(t, waitMax), 1, 2, "p")
	if popped.Tasks[0].ID != res.IDs[1] {
		t.Fatalf("priority order wrong: %+v", popped.Tasks)
	}
	// Single priority broadcasts.
	res2, err := db.SubmitBatch(bg, "e", 1, []string{"x", "y"}, []int{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids2 := res2.IDs
	prios, _ := db.Priorities(bg, ids2)
	if prios[ids2[0]] != 5 || prios[ids2[1]] != 5 {
		t.Fatalf("broadcast priorities = %v", prios)
	}
	// Mismatched length errors.
	if _, err := db.SubmitBatch(bg, "e", 1, []string{"x", "y"}, []int{1, 2, 3}, nil); err == nil {
		t.Fatal("mismatched priorities must error")
	}
	// Empty batch is a no-op.
	if out, err := db.SubmitBatch(bg, "e", 1, nil, nil, nil); err != nil || len(out.IDs) != 0 {
		t.Fatalf("empty batch = %v, %v", out.IDs, err)
	}
}

func TestSubmitTasksBatchAtomicWithClose(t *testing.T) {
	db, err := NewDB()
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := db.SubmitBatch(bg, "e", 1, []string{"x"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v", err)
	}
}
