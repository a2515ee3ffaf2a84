package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/obs"
	"osprey/internal/service"
	"osprey/internal/telemetry"
)

const (
	tick    = 2 * time.Millisecond
	waitMax = 5 * time.Second
)

var bg = context.Background()

func newDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.NewDB()
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

func echoExec(payload string) (string, error) { return "r:" + payload, nil }

func submit(t *testing.T, db core.Session, workType int, payload string, opts ...core.SubmitOption) int64 {
	t.Helper()
	res, err := db.Submit(bg, "e", workType, payload, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return res.ID
}

func submitN(t *testing.T, db core.Session, workType, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = submit(t, db, workType, fmt.Sprint(i))
	}
	return ids
}

// queryResult waits up to waitMax for task id's result.
func queryResult(db core.Session, id int64) (string, error) {
	ctx, cancel := context.WithTimeout(bg, waitMax)
	defer cancel()
	res, err := db.QueryResult(ctx, id)
	return res.Result, err
}

// popResults waits up to waitMax for up to max results of ids.
func popResults(db core.Session, ids []int64, max int) ([]core.TaskResult, error) {
	ctx, cancel := context.WithTimeout(bg, waitMax)
	defer cancel()
	res, err := db.PopResults(ctx, ids, max)
	return res.Results, err
}

// runPool starts the pool and returns a cancel-and-wait function.
func runPool(t *testing.T, p *Pool) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx)
	}()
	return func() {
		cancel()
		select {
		case <-done:
		case <-time.After(waitMax):
			t.Fatal("pool did not shut down")
		}
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(waitMax)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(tick)
	}
	t.Fatal(msg)
}

func TestPoolExecutesAllTasks(t *testing.T) {
	db := newDB(t)
	ids := submitN(t, db, 1, 40)
	p, err := New(db, Config{Name: "p1", Workers: 4, BatchSize: 8, WorkType: 1}, echoExec, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stop := runPool(t, p)
	defer stop()

	results, err := popResults(db, ids, len(ids))
	total := len(results)
	for err == nil && total < len(ids) {
		results, err = popResults(db, ids, len(ids))
		total += len(results)
	}
	if err != nil {
		t.Fatalf("PopResults: %v (got %d)", err, total)
	}
	if total != len(ids) {
		t.Fatalf("completed %d, want %d", total, len(ids))
	}
	waitFor(t, func() bool { return p.Executed() == len(ids) }, "Executed never reached total")
	if p.Owned() != 0 {
		t.Fatalf("Owned = %d after drain", p.Owned())
	}
}

func TestPoolResultContents(t *testing.T) {
	db := newDB(t)
	id := submit(t, db, 1, "payload-x")
	p, _ := New(db, Config{Name: "p", Workers: 1, WorkType: 1}, echoExec, nil)
	stop := runPool(t, p)
	defer stop()
	res, err := queryResult(db, id)
	if err != nil || res != "r:payload-x" {
		t.Fatalf("result = %q, %v", res, err)
	}
}

func TestPoolWorkTypeFilter(t *testing.T) {
	db := newDB(t)
	simID := submit(t, db, 1, "sim")
	gpuID := submit(t, db, 2, "gpu")
	p, _ := New(db, Config{Name: "gpu-pool", Workers: 2, WorkType: 2}, echoExec, nil)
	stop := runPool(t, p)
	defer stop()
	if res, err := queryResult(db, gpuID); err != nil || res != "r:gpu" {
		t.Fatalf("gpu result = %q, %v", res, err)
	}
	// The type-1 task must remain untouched.
	st, _ := db.Statuses(bg, []int64{simID})
	if st[simID] != core.StatusQueued {
		t.Fatalf("type-1 task status = %v, want queued", st[simID])
	}
}

func TestPoolOwnershipCap(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 100)
	block := make(chan struct{})
	var peak atomic.Int64
	exec := func(payload string) (string, error) {
		<-block
		return "ok", nil
	}
	p, _ := New(db, Config{Name: "p", Workers: 3, BatchSize: 10, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	// With all workers blocked the pool may own at most BatchSize tasks.
	waitFor(t, func() bool {
		n := int64(p.Owned())
		if n > peak.Load() {
			peak.Store(n)
		}
		return n >= 3 // workers have picked up tasks
	}, "pool never picked up tasks")
	time.Sleep(50 * time.Millisecond)
	if got := peak.Load(); got > 10 {
		t.Fatalf("owned peaked at %d, cap is 10", got)
	}
	close(block)
	waitFor(t, func() bool { return p.Executed() == 100 }, "pool did not finish after unblock")
}

func TestPoolThresholdDefersFetching(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 30)
	release := make(chan struct{}, 30)
	exec := func(payload string) (string, error) {
		<-release
		return "ok", nil
	}
	// BatchSize 10, threshold 5: after the initial fill, completing 4 tasks
	// must not trigger a refetch; completing a 5th must.
	p, _ := New(db, Config{Name: "p", Workers: 10, BatchSize: 10, Threshold: 5, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	waitFor(t, func() bool { return p.Owned() == 10 }, "initial fill did not reach batch size")
	for i := 0; i < 4; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool { return p.Executed() == 4 }, "4 tasks did not complete")
	time.Sleep(60 * time.Millisecond) // deficit 4 < threshold 5: no refetch
	if owned := p.Owned(); owned != 6 {
		t.Fatalf("owned = %d, want 6 (no refetch below threshold)", owned)
	}
	release <- struct{}{}
	waitFor(t, func() bool { return p.Owned() == 10 }, "refetch at threshold did not happen")
	for i := 0; i < 25; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool { return p.Executed() >= 25 }, "pool stalled")
}

func TestEquitableSharingAcrossPools(t *testing.T) {
	// Two pools with batch size equal to workers share 200 tasks roughly
	// evenly — the starvation-prevention claim of §IV-D.
	db := newDB(t)
	ids := submitN(t, db, 1, 200)
	slowExec := func(payload string) (string, error) {
		time.Sleep(time.Millisecond)
		return "ok", nil
	}
	p1, _ := New(db, Config{Name: "a", Workers: 8, BatchSize: 8, WorkType: 1}, slowExec, nil)
	p2, _ := New(db, Config{Name: "b", Workers: 8, BatchSize: 8, WorkType: 1}, slowExec, nil)
	stop1 := runPool(t, p1)
	defer stop1()
	stop2 := runPool(t, p2)
	defer stop2()
	waitFor(t, func() bool { return p1.Executed()+p2.Executed() == len(ids) }, "pools did not drain queue")
	a, b := p1.Executed(), p2.Executed()
	if a == 0 || b == 0 {
		t.Fatalf("starvation: split %d/%d", a, b)
	}
	if a < len(ids)/5 || b < len(ids)/5 {
		t.Fatalf("grossly inequitable split %d/%d", a, b)
	}
}

func TestPoolCrashRequeue(t *testing.T) {
	// A pool dies holding tasks; RequeueRunning recovers them and a fresh
	// pool completes the workload (fault-tolerance claim, §IV-B/§II-B1c).
	db := newDB(t)
	ids := submitN(t, db, 1, 20)
	hang := make(chan struct{})
	hungExec := func(payload string) (string, error) {
		<-hang
		return "never", nil
	}
	crash, _ := New(db, Config{Name: "crashy", Workers: 4, BatchSize: 8, WorkType: 1}, hungExec, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); crash.Run(ctx) }()
	waitFor(t, func() bool { return crash.Owned() >= 4 }, "crashy pool never took tasks")
	cancel() // simulated crash: workers hang, pool is killed
	close(hang)
	<-done

	rq, err := db.RequeueRunning(bg, "crashy")
	if err != nil || rq.Count == 0 {
		t.Fatalf("RequeueRunning = %d, %v", rq.Count, err)
	}
	fresh, _ := New(db, Config{Name: "fresh", Workers: 4, BatchSize: 8, WorkType: 1}, echoExec, nil)
	stop := runPool(t, fresh)
	defer stop()
	got := 0
	for got < len(ids) {
		results, err := popResults(db, ids, len(ids))
		if err != nil {
			t.Fatalf("PopResults after requeue: %v (have %d)", err, got)
		}
		got += len(results)
	}
}

func TestPoolTaskError(t *testing.T) {
	db := newDB(t)
	id := submit(t, db, 1, "bad")
	exec := func(payload string) (string, error) { return "", errors.New("exec exploded") }
	p, _ := New(db, Config{Name: "p", Workers: 1, WorkType: 1}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	res, err := queryResult(db, id)
	if err != nil {
		t.Fatalf("QueryResult: %v", err)
	}
	if !strings.Contains(res, "exec exploded") {
		t.Fatalf("error result = %q", res)
	}
	waitFor(t, func() bool { return p.Failed() == 1 }, "Failed counter not incremented")
}

func TestPoolTelemetry(t *testing.T) {
	db := newDB(t)
	submitN(t, db, 1, 10)
	rec := telemetry.NewRecorder(1)
	p, _ := New(db, Config{Name: "p", Workers: 2, WorkType: 1}, echoExec, rec)
	stop := runPool(t, p)
	waitFor(t, func() bool { return p.Executed() == 10 }, "tasks incomplete")
	stop()
	var starts, ends, poolStarts int
	for _, e := range rec.Events() {
		switch e.Kind {
		case telemetry.TaskStart:
			starts++
		case telemetry.TaskEnd:
			ends++
		case telemetry.PoolStart:
			poolStarts++
		}
	}
	if starts != 10 || ends != 10 || poolStarts != 1 {
		t.Fatalf("telemetry: starts=%d ends=%d poolStarts=%d", starts, ends, poolStarts)
	}
	series := rec.ConcurrencySeries("p")
	for _, pt := range series.Points {
		if pt.V < 0 || pt.V > 2 {
			t.Fatalf("concurrency %v out of [0, workers] range", pt.V)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	db := newDB(t)
	if _, err := New(db, Config{}, echoExec, nil); err == nil {
		t.Fatal("missing name must error")
	}
	if _, err := New(db, Config{Name: "p", BatchSize: 2, Threshold: 5}, echoExec, nil); err == nil {
		t.Fatal("threshold > batch must error")
	}
	if _, err := New(nil, Config{Name: "p"}, echoExec, nil); err == nil {
		t.Fatal("nil api must error")
	}
	if _, err := New(db, Config{Name: "p"}, nil, nil); err == nil {
		t.Fatal("nil exec must error")
	}
	p, err := New(db, Config{Name: "p"}, echoExec, nil)
	if err != nil {
		t.Fatalf("minimal config: %v", err)
	}
	if p.cfg.Workers != 1 || p.cfg.BatchSize != 1 || p.cfg.Threshold != 1 {
		t.Fatalf("defaults = %+v", p.cfg)
	}
}

func TestPoolRunningFlag(t *testing.T) {
	db := newDB(t)
	p, _ := New(db, Config{Name: "p", WorkType: 1}, echoExec, nil)
	if p.Running() {
		t.Fatal("Running before Run")
	}
	stop := runPool(t, p)
	waitFor(t, func() bool { return p.Running() }, "Running flag not set")
	stop()
	waitFor(t, func() bool { return !p.Running() }, "Running flag not cleared")
}

func TestJSONCores(t *testing.T) {
	if JSONCores(`{"cores": 4}`) != 4 {
		t.Fatal("cores field not parsed")
	}
	if JSONCores(`{"x": 1}`) != 1 || JSONCores("not json") != 1 || JSONCores(`{"cores": -2}`) != 1 {
		t.Fatal("defaults wrong")
	}
}

func TestMultiCoreTaskOccupiesSlots(t *testing.T) {
	// A 4-core task on a 4-worker pool runs alone: while it holds all
	// cores, single-core tasks cannot start (§II-B1a MPI tasks).
	db := newDB(t)
	bigRunning := make(chan struct{})
	releaseBig := make(chan struct{})
	var smallStarted atomic.Int32
	exec := func(payload string) (string, error) {
		if JSONCores(payload) == 4 {
			close(bigRunning)
			<-releaseBig
			return "big-done", nil
		}
		smallStarted.Add(1)
		return "small-done", nil
	}
	p, err := New(db, Config{
		Name: "mpi", Workers: 4, BatchSize: 8, WorkType: 1, CoresOf: JSONCores,
	}, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := runPool(t, p)
	defer stop()

	bigID := submit(t, db, 1, `{"cores": 4}`, core.WithPriority(10))
	var smallIDs []int64
	for i := 0; i < 4; i++ {
		id := submit(t, db, 1, `{"cores": 1}`)
		smallIDs = append(smallIDs, id)
	}
	<-bigRunning
	time.Sleep(50 * time.Millisecond)
	if n := smallStarted.Load(); n != 0 {
		t.Fatalf("%d single-core tasks ran while the 4-core task held all cores", n)
	}
	close(releaseBig)
	if res, err := queryResult(db, bigID); err != nil || res != "big-done" {
		t.Fatalf("big result = %q, %v", res, err)
	}
	done := 0
	for done < len(smallIDs) {
		results, err := popResults(db, smallIDs, 4)
		if err != nil {
			t.Fatalf("small tasks: %v", err)
		}
		done += len(results)
	}
}

func TestMultiCoreClampedToPoolSize(t *testing.T) {
	// A task demanding more cores than the pool has is clamped, not
	// deadlocked.
	db := newDB(t)
	id := submit(t, db, 1, `{"cores": 64}`)
	p, _ := New(db, Config{Name: "small", Workers: 2, WorkType: 1, CoresOf: JSONCores},
		func(string) (string, error) { return "ok", nil }, nil)
	stop := runPool(t, p)
	defer stop()
	if res, err := queryResult(db, id); err != nil || res != "ok" {
		t.Fatalf("oversized task = %q, %v", res, err)
	}
}

func TestMixedCoreThroughput(t *testing.T) {
	// Mixed 1- and 2-core tasks all complete and total concurrent core
	// usage never exceeds Workers.
	db := newDB(t)
	var curCores, peakCores atomic.Int32
	exec := func(payload string) (string, error) {
		k := int32(JSONCores(payload))
		n := curCores.Add(k)
		for {
			old := peakCores.Load()
			if n <= old || peakCores.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		curCores.Add(-k)
		return "ok", nil
	}
	p, _ := New(db, Config{Name: "mix", Workers: 4, BatchSize: 8, WorkType: 1, CoresOf: JSONCores}, exec, nil)
	stop := runPool(t, p)
	defer stop()
	var ids []int64
	for i := 0; i < 30; i++ {
		payload := `{"cores": 1}`
		if i%3 == 0 {
			payload = `{"cores": 2}`
		}
		id := submit(t, db, 1, payload)
		ids = append(ids, id)
	}
	done := 0
	for done < len(ids) {
		results, err := popResults(db, ids, len(ids))
		if err != nil {
			t.Fatalf("drain: %v (done %d)", err, done)
		}
		done += len(results)
	}
	if peak := peakCores.Load(); peak > 4 {
		t.Fatalf("peak core usage %d exceeds 4 workers", peak)
	}
}

// TestPoolSurvivesServerLoss: a pool on a single-connection client whose
// server goes away keeps retrying its subscription — every resubscribe
// fails with a connection error — without panicking, and Run still returns
// once the pool is canceled.
func TestPoolSurvivesServerLoss(t *testing.T) {
	db := newDB(t)
	srv, err := service.Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := service.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := New(c, Config{Name: "remote", Workers: 1, WorkType: 1}, echoExec, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := runPool(t, p)
	// Once its first query has found the queue empty, the pool parks on its
	// subscription, so losing the server ends the stream it is reading.
	waitFor(t, func() bool {
		return obs.Flatten(srv.Metrics().Gather())[`osprey_service_request_seconds_count{op="query_tasks"}`] >= 1
	}, "pool never queried")
	srv.Close()
	// Nothing observable happens while the pool retries against the dead
	// connection; give it time for several failed resubscribes (the backoff
	// starts at 5ms and caps at 250ms).
	time.Sleep(300 * time.Millisecond)
	stop()
}
