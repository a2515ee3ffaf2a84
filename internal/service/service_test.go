package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
	"osprey/internal/pool"
)

const waitMax = 3 * time.Second

var bg = context.Background()

// waitCtx returns a polling context that expires after d.
func waitCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(bg, d)
	t.Cleanup(cancel)
	return ctx
}

// submitID submits one task through sess and returns its id.
func submitID(sess core.Session, expID string, workType int, payload string, opts ...core.SubmitOption) (int64, error) {
	res, err := sess.Submit(bg, expID, workType, payload, opts...)
	return res.ID, err
}

func newServerClient(t *testing.T) (*core.DB, *Client) {
	t.Helper()
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		db.Close()
	})
	return db, c
}

func TestPing(t *testing.T) {
	_, c := newServerClient(t)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestRemoteSubmitQueryReport(t *testing.T) {
	_, c := newServerClient(t)
	sub, err := c.Submit(bg, "exp", 1, `{"x": [1, 2]}`, core.WithPriority(4), core.WithTags("remote"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := sub.ID
	popped, err := c.QueryTasks(waitCtx(t, waitMax), 1, 1, "remote-pool")
	if err != nil {
		t.Fatalf("QueryTasks: %v", err)
	}
	tasks := popped.Tasks
	if len(tasks) != 1 || tasks[0].ID != id || tasks[0].Payload != `{"x": [1, 2]}` ||
		tasks[0].Priority != 4 || tasks[0].Pool != "remote-pool" {
		t.Fatalf("tasks = %+v", tasks)
	}
	if _, err := c.Report(bg, id, 1, "r"); err != nil {
		t.Fatalf("Report: %v", err)
	}
	res, err := c.QueryResult(waitCtx(t, waitMax), id)
	if err != nil || res.Result != "r" {
		t.Fatalf("QueryResult = %q, %v", res.Result, err)
	}
	tags, err := c.Tags(bg, id)
	if err != nil || len(tags) != 1 || tags[0] != "remote" {
		t.Fatalf("Tags = %v, %v", tags, err)
	}
}

func TestRemoteTimeoutMapsToErrTimeout(t *testing.T) {
	_, c := newServerClient(t)
	_, err := c.QueryTasks(waitCtx(t, 50*time.Millisecond), 1, 1, "p")
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", err)
	}
	if _, err := c.QueryResult(waitCtx(t, 50*time.Millisecond), 99); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("QueryResult err = %v", err)
	}
}

func TestRemoteBatchOps(t *testing.T) {
	_, c := newServerClient(t)
	var ids []int64
	for i := 0; i < 5; i++ {
		sub, _ := c.Submit(bg, "e", 1, fmt.Sprint(i))
		ids = append(ids, sub.ID)
	}
	sts, err := c.Statuses(bg, ids)
	if err != nil || len(sts) != 5 {
		t.Fatalf("Statuses = %v, %v", sts, err)
	}
	up, err := c.UpdatePriorities(bg, ids, []int{5, 4, 3, 2, 1})
	if err != nil || up.Count != 5 {
		t.Fatalf("UpdatePriorities = %d, %v", up.Count, err)
	}
	prios, err := c.Priorities(bg, ids)
	if err != nil || prios[ids[0]] != 5 {
		t.Fatalf("Priorities = %v, %v", prios, err)
	}
	nc, err := c.CancelTasks(bg, ids[3:])
	if err != nil || nc.Count != 2 {
		t.Fatalf("CancelTasks = %d, %v", nc.Count, err)
	}
	counts, err := c.Counts(bg, "e")
	if err != nil || counts[core.StatusCanceled] != 2 || counts[core.StatusQueued] != 3 {
		t.Fatalf("Counts = %v, %v", counts, err)
	}
}

func TestRemotePopResults(t *testing.T) {
	db, c := newServerClient(t)
	var ids []int64
	for i := 0; i < 3; i++ {
		sub, _ := c.Submit(bg, "e", 1, "x")
		ids = append(ids, sub.ID)
	}
	popped, _ := db.QueryTasks(waitCtx(t, waitMax), 1, 3, "p")
	for _, task := range popped.Tasks {
		db.Report(bg, task.ID, 1, fmt.Sprintf("res-%d", task.ID))
	}
	res, err := c.PopResults(waitCtx(t, waitMax), ids, 10)
	if err != nil || len(res.Results) != 3 {
		t.Fatalf("PopResults = %v, %v", res.Results, err)
	}
	for _, r := range res.Results {
		if r.Result != fmt.Sprintf("res-%d", r.ID) {
			t.Fatalf("result = %+v", r)
		}
	}
}

func TestRemoteRequeue(t *testing.T) {
	_, c := newServerClient(t)
	c.Submit(bg, "e", 1, "x")
	if _, err := c.QueryTasks(waitCtx(t, waitMax), 1, 1, "dead-pool"); err != nil {
		t.Fatal(err)
	}
	rq, err := c.RequeueRunning(bg, "dead-pool")
	if err != nil || rq.Count != 1 {
		t.Fatalf("RequeueRunning = %d, %v", rq.Count, err)
	}
}

func TestWorkerPoolOverService(t *testing.T) {
	// A worker pool running against the remote client — the paper's
	// cross-resource deployment — completes tasks submitted by another
	// client.
	_, me := newServerClient(t)
	poolClient, err := Dial(me.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer poolClient.Close()

	p, err := pool.New(poolClient, pool.Config{Name: "svc-pool", Workers: 3, WorkType: 1},
		func(payload string) (string, error) { return "done:" + payload, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)

	var ids []int64
	for i := 0; i < 10; i++ {
		sub, err := me.Submit(bg, "e", 1, fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	got := 0
	for got < len(ids) {
		res, err := me.PopResults(waitCtx(t, waitMax), ids, len(ids))
		if err != nil {
			t.Fatalf("PopResults: %v (have %d)", err, got)
		}
		got += len(res.Results)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, c := newServerClient(t)
	var clients []*Client
	for i := 0; i < 4; i++ {
		ci, err := Dial(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ci.Close()
		clients = append(clients, ci)
	}
	var wg sync.WaitGroup
	for i, ci := range clients {
		wg.Add(1)
		go func(i int, ci *Client) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := ci.Submit(context.Background(), "e", 1, fmt.Sprintf("%d-%d", i, j)); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(i, ci)
	}
	wg.Wait()
	counts, err := c.Counts(bg, "e")
	if err != nil || counts[core.StatusQueued] != 100 {
		t.Fatalf("counts = %v, %v", counts, err)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newServerClient(t)
	// Unknown op via raw round trip.
	if _, err := c.roundTrip(request{Op: "explode"}, time.Second); err == nil {
		t.Fatal("unknown op must error")
	}
	// Report for a nonexistent task surfaces the DB error.
	if _, err := c.Report(bg, 424242, 1, "x"); err == nil {
		t.Fatal("report unknown task must error")
	}
}

func TestDialContextWaitsForService(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Reserve an address, start serving only after a delay.
	srvCh := make(chan *Server, 1)
	addrCh := make(chan string, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv, err := Serve(db, "127.0.0.1:0")
		if err != nil {
			return
		}
		addrCh <- srv.Addr()
		srvCh <- srv
	}()
	// We do not know the port until it binds, so dial the real address with
	// a context that outlives the startup delay.
	addr := <-addrCh
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatalf("DialContext: %v", err)
	}
	c.Close()
	(<-srvCh).Close()

	// Unreachable address times out.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := DialContext(ctx2, "127.0.0.1:1"); err == nil {
		t.Fatal("DialContext to dead address must fail")
	}
}

func TestLargePayload(t *testing.T) {
	_, c := newServerClient(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = 'a' + byte(i%26)
	}
	sub, err := c.Submit(bg, "e", 1, string(big))
	if err != nil {
		t.Fatalf("submit 1MB payload: %v", err)
	}
	popped, err := c.QueryTasks(waitCtx(t, waitMax), 1, 1, "p")
	if err != nil || popped.Tasks[0].ID != sub.ID || popped.Tasks[0].Payload != string(big) {
		t.Fatalf("large payload round trip failed: %v", err)
	}
}

func TestRemoteSubmitBatch(t *testing.T) {
	_, c := newServerClient(t)
	payloads := make([]string, 100)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"i": %d}`, i)
	}
	batch, err := c.SubmitBatch(bg, "batch", 1, payloads, []int{3}, nil)
	if err != nil || len(batch.IDs) != 100 {
		t.Fatalf("SubmitBatch = %d ids, %v", len(batch.IDs), err)
	}
	counts, _ := c.Counts(bg, "batch")
	if counts[core.StatusQueued] != 100 {
		t.Fatalf("counts = %v", counts)
	}
	popped, err := c.QueryTasks(waitCtx(t, waitMax), 1, 1, "p")
	if err != nil || popped.Tasks[0].Priority != 3 {
		t.Fatalf("first pop = %+v, %v", popped.Tasks, err)
	}
}
