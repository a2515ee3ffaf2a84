package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/future"
	"osprey/internal/pool"
	"osprey/internal/service"
	"osprey/internal/watch"
)

const (
	expID    = "bench"
	workType = 1
	// maxLoops is the most closed-loop clients a workload runs: nproc on
	// the reference 2-vCPU box, fixed so the inputs do not depend on the
	// machine.
	maxLoops = 2
	// opTimeout bounds every call; no call on these workloads should come
	// anywhere near it.
	opTimeout = 30 * time.Second
	// Pool shape of paper Fig. 3, bottom panel.
	poolWorkers   = 33
	poolBatch     = 33
	poolThreshold = 15
	// Depth of the deep workloads' preload.
	deepQueued    = 20000
	deepCompleted = 20000
	reprioEvery   = 99  // batch-deep: completions between reprioritizations
	reprioIDs     = 100 // ids per batch-deep UpdatePriorities
	readIDs       = 100 // ids per batch-deep Statuses
)

// workload is one named traffic mix. rate is the nominal completed-task rate
// of the reference box; it sizes the fixed task count of a run (seconds ×
// rate), so every run of a workload ends at the same table depth however
// fast the program is.
type workload struct {
	name    string
	rate    float64
	loops   int  // closed-loop clients
	deep    bool // preloaded to the stated depth
	cluster bool
	reps    int // set-up + timed phase repetitions per run
	// segments is the number of equal segments each timed phase is cut
	// into; every metric is the median over all segments of the run.
	segments int
	// start brings up the nodes and clients of b (after the preload).
	start func(b *bench) error
	// run drives n completed tasks through the workload's loops.
	run func(b *bench, n int) error
	// stop ends whatever start began beyond the nodes (the worker pool).
	stop func(b *bench)
}

var workloads = map[string]*workload{
	"single-shallow": {name: "single-shallow", rate: 3300, loops: 2, reps: 5, segments: 2,
		start: startShallow, run: runShallow},
	"batch-deep": {name: "batch-deep", rate: 2000, loops: 1, deep: true, reps: 3, segments: 8,
		start: startBatch, run: runBatch, stop: stopBatch},
	"cluster-deep": {name: "cluster-deep", rate: 65, loops: 1, deep: true, cluster: true, reps: 3, segments: 4,
		start: startCluster, run: runCluster},
}

// gen is the benchmark's one input RNG: priorities, reprioritization
// samples and payloads all come from it, in a fixed order.
type gen struct{ rng *rand.Rand }

func newGen(seed uint64) *gen { return &gen{rand.New(rand.NewPCG(seed, 0x05b3e7))} }

func (g *gen) payload() string {
	return fmt.Sprintf(`{"x":%d,"beta":%.6f,"gamma":%.6f}`, g.rng.Uint32(), g.rng.Float64(), g.rng.Float64())
}
func (g *gen) prio() int { return g.rng.IntN(100) }

// step is one closed-loop iteration's inputs.
type step struct {
	payload      string
	prio, reprio int
	pick         int // index draw into the loop's outstanding ids
}

func (g *gen) script(n int) []step {
	s := make([]step, n)
	for i := range s {
		s[i] = step{payload: g.payload(), prio: g.prio(), reprio: g.prio(), pick: g.rng.IntN(1 << 30)}
	}
	return s
}

// bench is one set-up workload: its nodes, clients, inputs and ledger.
type bench struct {
	cfg  config
	w    *workload
	dep  *deployment
	gen  *gen
	led  *ledger
	recP atomic.Pointer[recorder] // nil outside the timed phase

	sc    *service.Client        // single-shallow: the loops' shared client
	cc    *service.ClusterClient // cluster-deep: the loop's client
	me    *service.Client        // batch-deep: the ME algorithm's client
	wk    *service.Client        // batch-deep: the pool's client
	out   *idSet                 // batch-deep: the ME's outstanding ids
	own   [maxLoops]*idSet       // cluster-deep: each loop's submitted ids
	since int                    // batch-deep: completions since the last reprioritization

	poolStop context.CancelFunc
	poolDone chan struct{}

	// Counters of useful outcomes over attempts, for the timed phase.
	reprioSent, reprioHit atomic.Int64
	claimAsked, claimGot  atomic.Int64
}

func (b *bench) rec() *recorder { return b.recP.Load() }

func (b *bench) noteReprio(sent, hit int) {
	if b.rec() != nil {
		b.reprioSent.Add(int64(sent))
		b.reprioHit.Add(int64(hit))
	}
}

func (b *bench) noteClaim(asked, got int) {
	if b.rec() != nil {
		b.claimAsked.Add(int64(asked))
		b.claimGot.Add(int64(got))
	}
}

func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), opTimeout)
}

// setUp builds one complete instance of the workload: nodes, preload,
// followers caught up, clients, and a warm-up of the full task path.
func setUp(cfg config, w *workload, idx int) (*bench, error) {
	b := &bench{cfg: cfg, w: w, gen: newGen(cfg.seed), led: newLedger()}
	var err error
	if w.cluster {
		b.dep, err = openCluster()
	} else {
		b.dep, err = openDurable(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", w.name, idx)))
	}
	if err != nil {
		return nil, err
	}
	if w.deep {
		if err := b.preload(); err != nil {
			b.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		if err := b.dep.caughtUp(60 * time.Second); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := w.start(b); err != nil {
		b.close()
		return nil, err
	}
	if err := w.run(b, cfg.warm()); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *bench) close() {
	if b.w.stop != nil && b.poolStop != nil {
		b.w.stop(b)
	}
	for _, c := range []*service.Client{b.sc, b.me, b.wk} {
		if c != nil {
			c.Close()
		}
	}
	if b.cc != nil {
		b.cc.Close()
	}
	b.dep.close()
}

// preload writes the deep workloads' history straight into the leader's
// database: cfg.complete tasks submitted, claimed, reported and collected,
// then cfg.queued tasks left queued at uniform 0–99 priorities. On the
// cluster the followers are already attached, and the preload waits for a
// quorum after every batch and every preloadQuorumEvery reports, so it
// replicates the way a live cluster of quorum writers grows instead of
// racing ahead of the followers.
func (b *bench) preload() error {
	db := b.dep.leader()
	ctx := context.Background()
	const chunk = 1000
	for done := 0; done < b.cfg.complete; {
		n := min(chunk, b.cfg.complete-done)
		payloads, prios := b.batchInputs(n)
		sr, err := db.SubmitBatch(ctx, expID, workType, payloads, prios, nil)
		if err != nil {
			return err
		}
		if err := b.replicated(sr.Token); err != nil {
			return err
		}
		tr, err := db.QueryTasks(ctx, workType, n, "preload")
		if err != nil {
			return err
		}
		if err := b.replicated(tr.Token); err != nil {
			return err
		}
		ids := make([]int64, len(tr.Tasks))
		for i, t := range tr.Tasks {
			rr, err := db.Report(ctx, t.ID, workType, resultOf(t.Payload))
			if err != nil {
				return err
			}
			if i%preloadQuorumEvery == preloadQuorumEvery-1 {
				if err := b.replicated(rr.Token); err != nil {
					return err
				}
			}
			ids[i] = t.ID
		}
		pr, err := db.PopResults(ctx, ids, len(ids))
		if err != nil {
			return err
		}
		if err := b.replicated(pr.Token); err != nil {
			return err
		}
		done += len(tr.Tasks)
	}
	b.out = newIDSet()
	for done := 0; done < b.cfg.queued; done += chunk {
		payloads, prios := b.batchInputs(min(chunk, b.cfg.queued-done))
		res, err := db.SubmitBatch(ctx, expID, workType, payloads, prios, nil)
		if err != nil {
			return err
		}
		if err := b.replicated(res.Token); err != nil {
			return err
		}
		for i, id := range res.IDs {
			b.led.submitted(id, payloads[i])
			b.out.add(id)
		}
	}
	return nil
}

// preloadQuorumEvery bounds how far the cluster preload runs ahead of the
// followers, in report transactions.
const preloadQuorumEvery = 200

// replicated waits until a quorum holds the entry tok (a no-op standalone).
func (b *bench) replicated(tok core.Token) error {
	if b.dep.nodes == nil {
		return nil
	}
	return b.dep.nodes[0].WaitQuorumIndex(tok)
}

func (b *bench) batchInputs(n int) ([]string, []int) {
	payloads := make([]string, n)
	prios := make([]int, n)
	for i := range payloads {
		payloads[i] = b.gen.payload()
		prios[i] = b.gen.prio()
	}
	return payloads, prios
}

// inLoops runs n iterations split over the closed loops, each loop with its
// own pre-drawn script.
func (b *bench) inLoops(n int, body func(loop int, s step)) {
	var wg sync.WaitGroup
	loops := b.w.loops
	for i := 0; i < loops; i++ {
		steps := b.gen.script(n/loops + boolInt(i < n%loops))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, s := range steps {
				body(i, s)
			}
		}(i)
	}
	wg.Wait()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report hands a claimed task's no-op result to Report through sess.
func (b *bench) report(sess core.Session, name string, t core.Task) error {
	res := resultOf(t.Payload)
	start := time.Now()
	b.led.report(t.ID, res, start)
	ctx, cancel := opCtx()
	_, err := sess.Report(ctx, t.ID, workType, res)
	cancel()
	b.rec().call("", name, t.ID, start, err)
	return err
}

// collected records results delivered to their submitter at now.
func (b *bench) collected(results []core.TaskResult, now time.Time) {
	rec := b.rec()
	for _, r := range results {
		if at := b.led.collect(r.ID, r.Result); !at.IsZero() {
			rec.observe("result", at, now)
		}
	}
}

// --- single-shallow ---------------------------------------------------------

func startShallow(b *bench) error {
	c, err := service.Dial(b.dep.addrs[0])
	if err != nil {
		return err
	}
	b.sc = c
	return nil
}

// runShallow: Submit → UpdatePriorities(own) → QueryTasks(1) → Report →
// PopResults(own) → Statuses(own), on two loops sharing one connection.
func runShallow(b *bench, n int) error {
	b.inLoops(n, func(loop int, s step) {
		rec := b.rec()
		ctx, cancel := opCtx()
		defer cancel()
		start := time.Now()
		sr, err := b.sc.Submit(ctx, expID, workType, s.payload, core.WithPriority(s.prio))
		rec.call("submit", "client.submit", sr.ID, start, err)
		if err != nil {
			return
		}
		b.led.submitted(sr.ID, s.payload)
		own := []int64{sr.ID}

		start = time.Now()
		cr, err := b.sc.UpdatePriorities(ctx, own, []int{s.reprio})
		rec.call("reprio", "client.update_priorities", sr.ID, start, err)
		b.noteReprio(1, cr.Count)

		start = time.Now()
		tr, err := b.sc.QueryTasks(ctx, workType, 1, fmt.Sprintf("loop%d", loop))
		rec.call("claim", "client.query_tasks", sr.ID, start, err)
		if err == nil {
			b.led.claim(tr.Tasks)
			b.noteClaim(1, len(tr.Tasks))
			for _, t := range tr.Tasks {
				b.report(b.sc, "client.report", t)
			}
		}

		start = time.Now()
		pr, err := b.sc.PopResults(ctx, own, 1)
		rec.call("", "client.pop_results", sr.ID, start, err)
		if err == nil {
			b.collected(pr.Results, time.Now())
		}

		start = time.Now()
		st, err := b.sc.Statuses(ctx, own)
		rec.call("read", "client.statuses", sr.ID, start, err)
		if err == nil && st[sr.ID] != core.StatusComplete {
			b.led.problem("task %d status %q after its result was collected", sr.ID, st[sr.ID])
		}
	})
	return nil
}

// --- batch-deep -------------------------------------------------------------

// timedSession is the pool's client, wrapped only to time the pool's calls
// and record claims and reports for the checks. Watch is forwarded so the
// pool keeps its production (push-driven) fetch path.
type timedSession struct {
	*service.Client
	b *bench
}

func (s timedSession) QueryTasks(ctx context.Context, wt, n int, poolName string) (core.TasksRes, error) {
	start := time.Now()
	res, err := s.Client.QueryTasks(ctx, wt, n, poolName)
	if err == nil {
		s.b.led.claim(res.Tasks)
		s.b.noteClaim(n, len(res.Tasks))
	}
	s.b.rec().call("claim", "pool.query_tasks", 0, start, err)
	return res, err
}

func (s timedSession) Report(ctx context.Context, id int64, wt int, result string) (core.Res, error) {
	start := time.Now()
	s.b.led.report(id, result, start)
	res, err := s.Client.Report(ctx, id, wt, result)
	s.b.rec().call("", "pool.report", id, start, err)
	return res, err
}

func (s timedSession) Watch(ctx context.Context, q watch.Query, buf int) (watch.Stream, error) {
	st, err := s.Client.Watch(ctx, q, buf)
	if err != nil && ctx.Err() != nil {
		// Known defect (NOTES.md): a pool stopped while it resubscribes
		// closes the nil stream its failed Watch left behind and panics.
		// This path is reached only while the benchmark stops the pool;
		// hand it an ended stream along with the same error.
		return endedStream{err}, err
	}
	return st, err
}

// endedStream is a watch stream that has already ended with err.
type endedStream struct{ err error }

var closedEvents = func() chan []watch.Event {
	c := make(chan []watch.Event)
	close(c)
	return c
}()

func (e endedStream) Events() <-chan []watch.Event { return closedEvents }
func (e endedStream) Err() error                   { return e.err }
func (e endedStream) Close() error                 { return nil }

var _ watch.Session = timedSession{}

func startBatch(b *bench) error {
	var err error
	if b.me, err = service.Dial(b.dep.addrs[0]); err != nil {
		return err
	}
	if b.wk, err = service.Dial(b.dep.addrs[0]); err != nil {
		return err
	}
	p, err := pool.New(timedSession{b.wk, b}, pool.Config{
		Name: "bench-pool", Workers: poolWorkers, BatchSize: poolBatch,
		Threshold: poolThreshold, WorkType: workType,
	}, func(payload string) (string, error) { return resultOf(payload), nil }, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.poolStop, b.poolDone = cancel, make(chan struct{})
	go func() {
		defer close(b.poolDone)
		p.Run(ctx)
	}()
	return nil
}

func stopBatch(b *bench) {
	b.poolStop()
	<-b.poolDone
	b.poolStop = nil
}

// runBatch is the ME algorithm: collect completed results over the
// outstanding set, resubmit as many at uniform priorities (holding the
// queue depth), reprioritize 100 sampled ids every 99 completions, and read
// the statuses of 100 sampled ids each round — until n results arrived.
func runBatch(b *bench, n int) error {
	for got, fails := 0, 0; got < n; {
		if len(b.out.ids) == 0 {
			return errors.New("the ME has no outstanding tasks to collect")
		}
		if fails > 10 {
			return errors.New("result collection failed 10 times in a row")
		}
		rec := b.rec()
		ctx, cancel := opCtx()
		start := time.Now()
		pr, err := b.me.PopResults(ctx, b.out.ids, 0)
		rec.call("", "me.pop_results", 0, start, err)
		cancel()
		if err != nil {
			fails++
			continue
		}
		fails = 0
		b.collected(pr.Results, time.Now())
		for _, r := range pr.Results {
			b.out.remove(r.ID)
		}
		k := len(pr.Results)
		got += k

		payloads, prios := b.batchInputs(k)
		ctx, cancel = opCtx()
		start = time.Now()
		br, err := b.me.SubmitBatch(ctx, expID, workType, payloads, prios, nil)
		rec.call("submit", "me.submit_batch", 0, start, err)
		cancel()
		if err == nil {
			for i, id := range br.IDs {
				b.led.submitted(id, payloads[i])
				b.out.add(id)
			}
		}

		for b.since += k; b.since >= reprioEvery; b.since -= reprioEvery {
			ids := b.out.sample(b.gen, reprioIDs)
			prios := make([]int, len(ids))
			for i := range prios {
				prios[i] = b.gen.prio()
			}
			ctx, cancel = opCtx()
			start = time.Now()
			cr, err := b.me.UpdatePriorities(ctx, ids, prios)
			rec.call("reprio", "me.update_priorities", 0, start, err)
			cancel()
			b.noteReprio(len(ids), cr.Count)
		}

		ids := b.out.sample(b.gen, readIDs)
		ctx, cancel = opCtx()
		start = time.Now()
		st, err := b.me.Statuses(ctx, ids)
		rec.call("read", "me.statuses", 0, start, err)
		cancel()
		if err == nil && len(st) != len(ids) {
			b.led.problem("Statuses returned %d of %d outstanding ids", len(st), len(ids))
		}
	}
	return nil
}

// --- cluster-deep -----------------------------------------------------------

func startCluster(b *bench) error {
	cc, err := service.DialCluster(b.dep.addrs...)
	if err != nil {
		return err
	}
	b.cc = cc
	for i := range b.own {
		b.own[i] = newIDSet()
	}
	return nil
}

// runCluster: Submit → UpdatePriorities(one outstanding own id) →
// QueryTasks(1) → Report → the popped task's result delivered through watch
// (Future.Result) → GetTask (session read, follower-served), on one loop
// over a DialCluster client (NOTES.md says why not two). The read comes
// after the result so the result latency is Report plus Future.Result alone.
func runCluster(b *bench, n int) error {
	b.inLoops(n, func(loop int, s step) {
		rec := b.rec()
		ctx, cancel := opCtx()
		defer cancel()
		own := b.own[loop]
		start := time.Now()
		sr, err := b.cc.Submit(ctx, expID, workType, s.payload, core.WithPriority(s.prio))
		rec.call("submit", "client.submit", sr.ID, start, err)
		if err == nil {
			b.led.submitted(sr.ID, s.payload)
			own.add(sr.ID)
		}

		if len(own.ids) > 0 {
			id := own.ids[s.pick%len(own.ids)]
			start = time.Now()
			cr, err := b.cc.UpdatePriorities(ctx, []int64{id}, []int{s.reprio})
			rec.call("reprio", "client.update_priorities", id, start, err)
			b.noteReprio(1, cr.Count)
		}

		start = time.Now()
		tr, err := b.cc.QueryTasks(ctx, workType, 1, fmt.Sprintf("loop%d", loop))
		rec.call("claim", "client.query_tasks", sr.ID, start, err)
		if err != nil {
			return
		}
		b.led.claim(tr.Tasks)
		b.noteClaim(1, len(tr.Tasks))
		for _, t := range tr.Tasks {
			own.remove(t.ID)
			if b.report(b.cc, "client.report", t) != nil {
				continue
			}
			start = time.Now()
			res, err := future.Wrap(b.cc, t.ID, workType).Result(opTimeout)
			rec.call("", "future.result", t.ID, start, err)
			if err == nil {
				b.collected([]core.TaskResult{{ID: t.ID, Result: res}}, time.Now())
			}

			start = time.Now()
			got, err := b.cc.GetTask(ctx, t.ID)
			rec.call("read", "client.get_task", t.ID, start, err)
			if err == nil && (got.Status != core.StatusComplete || got.Result != resultOf(t.Payload)) {
				b.led.problem("task %d read back as %q/%q after its report", t.ID, got.Status, got.Result)
			}
		}
	})
	return nil
}

// idSet is an id slice with O(1) add, remove and uniform sampling.
type idSet struct {
	mu  sync.Mutex
	ids []int64
	pos map[int64]int
}

func newIDSet() *idSet { return &idSet{pos: make(map[int64]int)} }

func (s *idSet) add(id int64) {
	s.mu.Lock()
	s.pos[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.mu.Unlock()
}

func (s *idSet) remove(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.pos[id]
	if !ok {
		return
	}
	last := s.ids[len(s.ids)-1]
	s.ids[i] = last
	s.pos[last] = i
	s.ids = s.ids[:len(s.ids)-1]
	delete(s.pos, id)
}

// sample draws up to k distinct ids with g.
func (s *idSet) sample(g *gen, k int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	k = min(k, len(s.ids))
	seen := make(map[int]bool, k)
	out := make([]int64, 0, k)
	for len(out) < k {
		i := g.rng.IntN(len(s.ids))
		if !seen[i] {
			seen[i] = true
			out = append(out, s.ids[i])
		}
	}
	return out
}
