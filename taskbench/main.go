// Command taskbench is the repository's benchmark of the EMEWS task path:
// submit, reprioritize, claim, report and collect, at a stated, fixed queue
// depth. One process hosts the nodes, drives one named workload through the
// public core/service/replica/future/pool entry points, checks the outputs
// and prints every metric by name with its unit; the last line of standard
// output is one JSON object with the result.
//
//	go run . --workload cluster-deep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (spans, registry deltas, minisql probes). NOTES.md describes the
// workloads, the metrics and the known defects they show.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"osprey/internal/obs"
	"osprey/internal/service"
	"osprey/internal/watch"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tasks    int // timed tasks over all repetitions: seconds × the workload's rate
	queued   int // deep workloads: queued tasks preloaded
	complete int // deep workloads: completed tasks preloaded
	reps     int // repetitions of set-up + timed phase
	workdir  string
	corrupt  bool // falsify one collected result (self-test of the checks)
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("taskbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "single-shallow, batch-deep or cluster-deep")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase on the reference box")
	fs.IntVar(&trace, "trace", 0, "1: print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/taskbench", "directory for node data and spans")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace != 0
	w, ok := workloads[cfg.workload]
	if !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	cfg.tasks = int(math.Round(float64(cfg.seconds) * w.rate))
	cfg.reps = w.reps
	if w.deep {
		cfg.queued, cfg.complete = deepQueued, deepCompleted
	}
	return cfg, nil
}

// warm is the number of untimed warm-up tasks per set-up: 1/20 of a
// repetition's tasks.
func (c config) warm() int {
	w := workloads[c.workload]
	return max(w.loops, c.tasks/c.reps/20)
}

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the task service sees (--trace 0).
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"submit_p50_ms", "ms"}, {"submit_p90_ms", "ms"},
	{"claim_p50_ms", "ms"}, {"claim_p90_ms", "ms"},
	{"result_p50_ms", "ms"}, {"result_p90_ms", "ms"},
	{"reprio_p50_ms", "ms"}, {"reprio_p90_ms", "ms"},
	{"read_p50_ms", "ms"}, {"read_p90_ms", "ms"},
	{"cpu_ms_per_task", "ms"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
	{"ok_op_frac", "frac"},
}

// e2eOps are the timed client operations, in print order.
var e2eOps = []string{"submit", "claim", "result", "reprio", "read"}

// wireOps are the service ops the workloads call directly, with the client
// span names that time them.
var wireOps = []struct{ op, span string }{
	{"submit", "client.submit"},
	{"submit_batch", "me.submit_batch"},
	{"query_tasks", "client.query_tasks|pool.query_tasks"},
	{"report", "client.report|pool.report"},
	{"pop_results", "client.pop_results|me.pop_results"},
	{"update_priorities", "client.update_priorities|me.update_priorities"},
	{"statuses", "client.statuses|me.statuses"},
	{"task_get", "client.get_task"},
}

var coreOps = []string{"submit", "submit_batch", "pop_tasks", "pop_results", "report"}

// perLayer are the metrics of single layers (--trace 1).
var perLayer = func() []metricDef {
	d := []metricDef{
		{"minisql.dedup_miss_us", "us"},
		{"minisql.outq_churn_us", "us"},
		{"minisql.topn_us", "us"},
		{"minisql.outq_update_hit_us", "us"},
		{"minisql.outq_update_miss_us", "us"},
		{"minisql.plan_cache_hit_frac", "frac"},
		{"wal.bytes_per_task", "B"},
		{"wal.checkpoints", "count"},
		{"wal.fsyncs", "count"},
	}
	for _, op := range coreOps {
		d = append(d, metricDef{"core.op_us." + op, "us"})
	}
	d = append(d,
		metricDef{"core.reprio_hit_frac", "frac"},
		metricDef{"core.claim_fill_frac", "frac"},
		metricDef{"core.depth_drift", "tasks"},
	)
	for _, w := range wireOps {
		d = append(d, metricDef{"service.server_us." + w.op, "us"})
	}
	d = append(d, metricDef{"service.server_us.query_result", "us"})
	for _, w := range wireOps {
		d = append(d, metricDef{"service.wire_us." + w.op, "us"})
	}
	d = append(d,
		metricDef{"service.forwards", "count"},
		metricDef{"service.shed", "count"},
		metricDef{"replica.quorum_wait_us", "us"},
		metricDef{"replica.batch_entries_mean", "entries"},
		metricDef{"replica.follower_lag_max", "entries"},
		metricDef{"replica.term_changes", "count"},
		metricDef{"replica.snapshots_sent", "count"},
		metricDef{"watch.event_lag_us", "us"},
		metricDef{"watch.delivered", "count"},
		metricDef{"watch.dropped", "count"},
		metricDef{"future.result_us", "us"},
		metricDef{"pool.query_us", "us"},
		metricDef{"go.alloc_kb_per_task", "KB"},
		metricDef{"go.gc_cycles_per_ktask", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"flat.submit_p50_ratio", "ratio"},
		metricDef{"trace.span_cost_us_per_task", "us"},
		metricDef{"traced.tasks_per_s", "1/s"},
		metricDef{"traced.cpu_ms_per_task", "ms"},
		metricDef{"traced.submit_p50_ms", "ms"},
		metricDef{"traced.claim_p50_ms", "ms"},
		metricDef{"traced.result_p50_ms", "ms"},
	)
	return d
}()

// result is the benchmark's output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	problems  []string
	all       map[string]float64 // every computed value, printed as diagnostics
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskbench:", err)
		os.Exit(2)
	}
	// The whole run must end well inside three minutes; a hung node must not
	// hold the benchmark (or the machine) past that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "taskbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run repeats cfg.reps times: set the workload up (timed: setup_s), run the
// timed phase of cfg.tasks/cfg.reps tasks in segments, check the outputs,
// tear down. Latency percentiles pool every sample of the run; the other
// metrics are medians over segments or repetitions; op counts are summed.
// Human-readable lines go to out.
func run(cfg config, out io.Writer) (*result, error) {
	w := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	per := (cfg.tasks + cfg.reps*w.segments - 1) / (cfg.reps * w.segments)
	fmt.Fprintf(out, "workload %s seed %d reps %d segments/rep %d tasks/segment %d warm/rep %d loops %d depth %d queued + %d completed trace %v\n",
		w.name, cfg.seed, cfg.reps, w.segments, per, cfg.warm(), w.loops, cfg.queued, cfg.complete, cfg.trace)
	vals := map[string][]float64{}
	ops := map[string][]time.Duration{}
	var problems []string
	var attempted, failed float64
	for i := 0; i < cfg.reps; i++ {
		runtime.GC()
		start := time.Now()
		b, err := setUp(cfg, w, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup := time.Since(start).Seconds()
		last := i == cfg.reps-1
		b.led.corrupt = cfg.corrupt && last
		segs, extra, err := timed(b, per, last, ops)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		for j, v := range segs {
			for _, p := range b.segmentChecks(v) {
				problems = append(problems, fmt.Sprintf("rep %d segment %d: %s", i, j, p))
			}
			attempted += v["ops.attempted"]
			failed += v["ops.failed"]
			for k, x := range v {
				vals[k] = append(vals[k], x)
			}
		}
		for _, p := range b.repChecks(extra) {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		extra["live_heap_mb"] = closeMeasured(b)
		vals["setup_s"] = append(vals["setup_s"], setup)
		for k, x := range extra {
			vals[k] = append(vals[k], x)
		}
	}
	v := make(map[string]float64, len(vals))
	for k, xs := range vals {
		v[k] = median(xs)
	}
	// Latency percentiles come from every sample of the run pooled: a
	// segment holds too few claims and reprioritizations on the deep
	// workloads for its own p50/p90 to be steady.
	for _, op := range e2eOps {
		d := ops[op]
		if len(d) == 0 {
			problems = append(problems, "no successful "+op+" in the run")
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		v[op+"_p50_ms"] = quantileMS(d, 0.5)
		v[op+"_p90_ms"] = quantileMS(d, 0.9)
		v["diag."+op+"_p99_ms"] = quantileMS(d, 0.99)
		v["diag."+op+"_n"] = float64(len(d))
	}
	if cfg.trace {
		for _, k := range []string{"tasks_per_s", "cpu_ms_per_task", "submit_p50_ms", "claim_p50_ms", "result_p50_ms"} {
			v["traced."+k] = v[k]
		}
	}
	v["ops.attempted"], v["ops.failed"] = attempted, failed
	v["failed_op_frac"] = failed / math.Max(attempted, 1)
	v["ok_op_frac"] = 1 - v["failed_op_frac"]
	fmt.Fprintf(out, "per segment: tasks_per_s %s cpu_ms_per_task %s; per set-up: setup_s %s live_heap_mb %s\n",
		fmtVals(vals["tasks_per_s"]), fmtVals(vals["cpu_ms_per_task"]), fmtVals(vals["setup_s"]), fmtVals(vals["live_heap_mb"]))

	res := &result{Correct: len(problems) == 0, problems: problems, all: v,
		Attempted: int64(attempted), Failed: int64(failed)}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = make(map[string]measure, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = measure{Value: v[d.name], Unit: d.unit}
	}
	printReport(out, cfg, res, defs)
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func fmtVals(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// repChecks are the output checks of one repetition: the ledger's, the
// queue depth held over the timed phase, and on the cluster that the
// followers caught up with the leader.
func (b *bench) repChecks(extra map[string]float64) []string {
	problems := b.led.verify()
	if tol := driftTolerance(b.w, b.cfg.queued); math.Abs(extra["core.depth_drift"]) > tol {
		problems = append(problems, fmt.Sprintf("core.depth_drift %v outside ±%v", extra["core.depth_drift"], tol))
	}
	if b.w.cluster {
		if err := b.dep.caughtUp(10 * time.Second); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

// segmentChecks are the output checks of one cluster segment: no election,
// no snapshot bootstrap and no dropped watch event.
func (b *bench) segmentChecks(v map[string]float64) []string {
	var problems []string
	if b.w.cluster {
		for _, k := range []string{"replica.term_changes", "replica.snapshots_sent", "watch.dropped"} {
			if v[k] != 0 {
				problems = append(problems, fmt.Sprintf("%s = %v, want 0", k, v[k]))
			}
		}
	}
	return problems
}

// driftTolerance is how far the out-queue depth may move over the timed
// phase. The loop workloads claim one task per task they submit, so at most
// one per loop can be missing. On batch-deep the ME resubmits exactly what it
// collects, but the pool works ahead of it: the claimed-but-uncollected
// backlog (up to one ME round of completions) is missing from the queue, and
// its size at the end differs from its size at the start. It may differ by
// 5% of the preloaded depth.
func driftTolerance(w *workload, queued int) float64 {
	if w.name == "batch-deep" {
		return math.Max(2*poolBatch, 0.05*float64(queued))
	}
	return float64(w.loops)
}

// closeMeasured tears b down and returns the heap its nodes and clients held,
// in MB: the live heap after a forced GC with b up, minus the same once b is
// torn down. The benchmark's own records (pooled latency samples, metric
// maps) are live in both readings and cancel; the ledger and the id sets
// grow with the task count too and are dropped before the first reading.
func closeMeasured(b *bench) float64 {
	b.led, b.out, b.own = nil, nil, [maxLoops]*idSet{}
	up := liveHeap()
	b.close()
	b.dep, b.sc, b.cc, b.me, b.wk = nil, nil, nil, nil, nil
	return float64(up-liveHeap()) / (1 << 20)
}

// liveHeap is the heap in use after a forced GC, in bytes.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// timed runs the timed phase of one repetition as b.w.segments segments of
// n tasks each, adds every op latency sample to ops, and returns one metric
// map per segment. The depth is fixed
// across segments (the deep workloads hold it; on single-shallow the queue
// stays empty), so the segments are equivalent samples. The returned extra
// map holds what is measured once per repetition: the depth drift, on a
// traced cluster run the watch and follower lag, and in the last repetition
// of a traced run the minisql probes.
func timed(b *bench, n int, last bool, ops map[string][]time.Duration) (segs []map[string]float64, extra map[string]float64, err error) {
	extra = map[string]float64{}
	var lagMax float64
	var stopWatch func() map[int64]time.Time
	stopSampler := func() {}
	// Watch is on the task path of cluster-deep alone (Future.Result); the
	// standalone workloads collect through PopResults, and a subscription
	// there would add push traffic the untraced run does not have.
	if b.cfg.trace && b.w.cluster {
		if stopWatch, err = b.watchCompletions(); err != nil {
			return nil, nil, err
		}
		stopSampler = sampleLag(b.dep.leader().Metrics(), &lagMax)
	}
	outDepth := func() float64 { return float64(b.dep.leader().Engine().TableRows("eq_out_q")) }
	depth0, t0 := outDepth(), time.Now()
	for i := 0; i < b.w.segments; i++ {
		v, rec, err := segment(b, n)
		if err != nil {
			return nil, nil, fmt.Errorf("segment %d: %w", i, err)
		}
		segs = append(segs, v)
		for op, ss := range rec.ops {
			for _, x := range ss {
				ops[op] = append(ops[op], x.dur)
			}
		}
		if b.cfg.trace && last && i == b.w.segments-1 {
			if err := rec.writeSpans(filepath.Join(b.cfg.workdir, "spans-"+b.w.name+".jsonl")); err != nil {
				return nil, nil, err
			}
		}
	}
	extra["core.depth_drift"] = outDepth() - depth0
	stopSampler()
	if b.w.stop != nil {
		b.w.stop(b)
	}
	if stopWatch != nil {
		extra["watch.event_lag_us"] = b.eventLagUS(stopWatch(), t0)
		extra["replica.follower_lag_max"] = lagMax
	}
	if b.cfg.trace && last {
		missID, freeID := b.probeIDs()
		pv, err := probe(b.dep.leader(), missID, freeID)
		if err != nil {
			return nil, nil, err
		}
		for k, x := range pv {
			extra[k] = x
		}
	}
	return segs, extra, nil
}

// segment runs n tasks through the workload and computes every metric of
// the segment that is not measured once per repetition.
func segment(b *bench, n int) (map[string]float64, *recorder, error) {
	cfg := b.cfg
	regs := b.dep.registries()
	v := map[string]float64{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := scrape(regs)
	var wal0 int64
	if b.dep.fs != nil {
		wal0 = b.dep.fs.wal.Load()
	}
	cpu0 := cpuTime()
	b.reprioSent.Store(0)
	b.reprioHit.Store(0)
	b.claimAsked.Store(0)
	b.claimGot.Store(0)

	rec := newRecorder(cfg.trace)
	b.recP.Store(rec)
	err := b.w.run(b, n)
	elapsed := time.Since(rec.t0)
	b.recP.Store(nil)

	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	after := scrape(regs)
	if err != nil {
		return nil, nil, err
	}

	tasks := float64(len(rec.ops["result"]))
	if tasks == 0 {
		return nil, nil, fmt.Errorf("no task completed")
	}
	v["ops.attempted"] = float64(rec.attempted)
	v["ops.failed"] = float64(rec.failed)
	for _, e := range rec.errs {
		fmt.Fprintln(os.Stderr, "taskbench: failed op:", e)
	}
	v["tasks_per_s"] = tasks / elapsed.Seconds()
	v["timed_s"] = elapsed.Seconds()
	half := elapsed / 2
	if first := quantileMS(rec.durs("submit", 0, half), 0.5); first > 0 {
		v["flat.submit_p50_ratio"] = quantileMS(rec.durs("submit", half, math.MaxInt64), 0.5) / first
	}
	v["cpu_ms_per_task"] = cpu.Seconds() * 1e3 / tasks
	v["go.alloc_kb_per_task"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / tasks
	v["go.gc_cycles_per_ktask"] = float64(m1.NumGC-m0.NumGC) * 1000 / tasks
	v["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// Registry deltas over the timed phase, summed over the nodes.
	hits := delta(before, after, "osprey_minisql_plan_cache_hits_total")
	misses := delta(before, after, "osprey_minisql_plan_cache_misses_total")
	v["minisql.plan_cache_hit_frac"] = hits / math.Max(hits+misses, 1)
	if b.dep.fs != nil {
		v["wal.bytes_per_task"] = float64(b.dep.fs.wal.Load()-wal0) / tasks
	}
	v["wal.checkpoints"] = delta(before, after, "osprey_checkpoint_written_total")
	v["wal.fsyncs"] = delta(before, after, "osprey_wal_fsync_total")
	for _, op := range coreOps {
		v["core.op_us."+op] = 1e6 * histMean(before, after, "osprey_db_op_seconds", `{op="`+op+`"}`)
	}
	v["core.reprio_hit_frac"] = float64(b.reprioHit.Load()) / math.Max(float64(b.reprioSent.Load()), 1)
	v["core.claim_fill_frac"] = float64(b.claimGot.Load()) / math.Max(float64(b.claimAsked.Load()), 1)
	for _, w := range wireOps {
		server := 1e6 * histMean(before, after, "osprey_service_request_seconds", `{op="`+w.op+`"}`)
		v["service.server_us."+w.op] = server
		if client := spanMean(rec, w.span); client > 0 {
			v["service.wire_us."+w.op] = client - server
		}
	}
	v["service.server_us.query_result"] = 1e6 * histMean(before, after, "osprey_service_request_seconds", `{op="query_result"}`)
	v["service.forwards"] = delta(before, after, "osprey_service_forwards_total")
	v["service.shed"] = delta(before, after, "osprey_service_shed_total")
	v["replica.quorum_wait_us"] = 1e6 * histMean(before, after, "osprey_replica_quorum_wait_seconds", "")
	v["replica.batch_entries_mean"] = histMean(before, after, "osprey_replica_batch_entries", "")
	v["replica.term_changes"] = maxDelta(before, after, "osprey_replica_term")
	v["replica.snapshots_sent"] = delta(before, after, "osprey_replica_snapshots_sent_total")
	v["watch.delivered"] = delta(before, after, "osprey_watch_events_delivered_total")
	v["watch.dropped"] = delta(before, after, "osprey_watch_events_dropped_total")
	v["future.result_us"] = spanMean(rec, "future.result")
	v["pool.query_us"] = spanMean(rec, "pool.query_tasks")

	if cfg.trace {
		perTask := float64(len(rec.spans)) / tasks
		v["trace.span_cost_us_per_task"] = perTask * spanCostUS()
	}
	return v, rec, nil
}

// spanMean is the mean duration in µs of the spans named by any of the
// |-separated names.
func spanMean(rec *recorder, names string) float64 {
	var sum, n float64
	for _, name := range strings.Split(names, "|") {
		for _, s := range rec.spans {
			if s.Name == name {
				sum += float64(s.End-s.Start) / 1e3
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// probeIDs picks, from the ledger, a task that exists but is not queued
// (its result was collected) and an id above every task.
func (b *bench) probeIDs() (missID, freeID int64) {
	b.led.mu.Lock()
	defer b.led.mu.Unlock()
	for id := range b.led.collected {
		if missID == 0 || id < missID {
			missID = id
		}
	}
	for id := range b.led.payload {
		freeID = max(freeID, id)
	}
	return missID, freeID + 1000
}

// watchCompletions opens a benchmark-owned subscription to the work type's
// transitions on its own cluster connection and records when each task's
// complete event arrives. The returned stop function ends it and returns
// the arrivals.
func (b *bench) watchCompletions() (func() map[int64]time.Time, error) {
	cc, err := service.DialCluster(b.dep.addrs...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st, err := cc.Watch(ctx, watch.Query{WorkType: workType, Since: b.dep.leader().Token()}, 4096)
	if err != nil {
		cancel()
		cc.Close()
		return nil, err
	}
	arrivals := make(map[int64]time.Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range st.Events() {
			now := time.Now()
			for _, ev := range batch {
				if ev.Status == watch.StatusComplete && !ev.Resync {
					arrivals[ev.TaskID] = now
				}
			}
		}
	}()
	return func() map[int64]time.Time {
		// Let the tail of the run's events arrive before closing.
		time.Sleep(50 * time.Millisecond)
		st.Close()
		cancel()
		<-done
		cc.Close()
		return arrivals
	}, nil
}

// eventLagUS is the median time from a Report call to its task's complete
// event on the benchmark's subscription, in µs.
func (b *bench) eventLagUS(arrivals map[int64]time.Time, t0 time.Time) float64 {
	b.led.mu.Lock()
	defer b.led.mu.Unlock()
	var lags []time.Duration
	for id, at := range arrivals {
		if rep, ok := b.led.reportAt[id]; ok && !rep.Before(t0) {
			lags = append(lags, at.Sub(rep))
		}
	}
	if len(lags) == 0 {
		return 0
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return float64(lags[len(lags)/2].Nanoseconds()) / 1e3
}

// sampleLag polls the leader's per-follower lag gauges every 20ms and keeps
// the largest value seen in *max until the returned stop function runs.
func sampleLag(reg *obs.Registry, maxLag *float64) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			for _, s := range reg.Gather() {
				if s.Name == "osprey_replica_follower_lag" && s.Value > *maxLag {
					*maxLag = s.Value
				}
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(stop); <-done }
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func printReport(out io.Writer, cfg config, res *result, defs []metricDef) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run; trace.* and traced.* give the tracing overhead)"
	}
	fmt.Fprintf(out, "%s metrics, workload %s, seed %d:\n", mode, cfg.workload, cfg.seed)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "diagnostics:\n")
	for _, k := range []string{"timed_s", "failed_op_frac", "ops.attempted", "ops.failed"} {
		fmt.Fprintf(out, "  %-34s %14.4f\n", k, res.all[k])
	}
	for _, op := range e2eOps {
		fmt.Fprintf(out, "  %-34s %14.4f ms (n=%d)\n", op+"_p99", res.all["diag."+op+"_p99_ms"], int(res.all["diag."+op+"_n"]))
	}
	if res.Correct {
		fmt.Fprintln(out, "output checks: pass")
	} else {
		fmt.Fprintf(out, "output checks: FAIL (%d)\n", len(res.problems))
		for _, p := range res.problems {
			fmt.Fprintln(out, "  "+p)
		}
	}
}
