package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"osprey/internal/core"
	"osprey/internal/minisql"
	"osprey/internal/obs"
	"osprey/internal/replica"
	"osprey/internal/service"
)

// countFS is the real disk with a byte counter on every write to a WAL
// segment. It goes in through the store's filesystem seam, the only way to
// see WAL bytes: the registry's disk-bytes gauge shrinks at every
// checkpoint truncation.
type countFS struct {
	minisql.FS
	wal atomic.Int64
}

type countFile struct {
	minisql.File
	n *atomic.Int64
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func isWAL(name string) bool { return strings.Contains(filepath.ToSlash(name), "/wal/") }

func (c *countFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if isWAL(name) {
		c.wal.Add(int64(len(data)))
	}
	return c.FS.WriteFile(name, data, perm)
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (minisql.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !isWAL(name) {
		return f, err
	}
	return countFile{f, &c.wal}, nil
}

func (c *countFS) CreateTemp(dir, pattern string) (minisql.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil || !isWAL(f.Name()) {
		return f, err
	}
	return countFile{f, &c.wal}, nil
}

// deployment is the set of in-process nodes a workload runs against: one
// durable standalone node, or a three-node in-memory cluster (leader first).
type deployment struct {
	dbs   []*core.DB
	srvs  []*service.Server
	nodes []*replica.Node // nil for the standalone node
	addrs []string
	fs    *countFS // nil for the cluster
	dir   string
}

// leader is the node that takes writes.
func (d *deployment) leader() *core.DB { return d.dbs[0] }

func (d *deployment) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(d.dbs))
	for i, db := range d.dbs {
		regs[i] = db.Metrics()
	}
	return regs
}

func (d *deployment) close() {
	for _, s := range d.srvs {
		s.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
	if d.nodes == nil {
		for _, db := range d.dbs {
			db.Close()
		}
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// openDurable starts one durable node (on-disk WAL, no fsync, default
// checkpoint cadence) behind service.Serve.
func openDurable(dir string) (*deployment, error) {
	fs := &countFS{FS: minisql.OSFS}
	db, err := core.Open(dir, core.OpenOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	srv, err := service.Serve(db, "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	return &deployment{dbs: []*core.DB{db}, srvs: []*service.Server{srv},
		addrs: []string{srv.Addr()}, fs: fs, dir: dir}, nil
}

// electionTimeout replaces the 200ms default (lease 2× that). The three
// nodes share one process on two vCPUs; with the default, a busy stretch
// of the preload starves the leader of acks past its lease, it steps down,
// and the followers fall into the snapshot-bootstrap livelock at depth
// (NOTES.md, known defects).
const electionTimeout = time.Second

// writeQuorum is the number of followers that must apply a write before it
// is acknowledged.
const writeQuorum = 2

// openCluster starts three in-memory nodes with WriteQuorum 2 (writeQuorum) behind
// service.ServeNode and waits until both followers have joined the leader.
func openCluster() (*deployment, error) {
	d := &deployment{}
	for i := 0; i < 3; i++ {
		cfg := replica.Config{ID: fmt.Sprintf("n%d", i+1), Priority: 3 - i,
			Addr: "127.0.0.1:0", WriteQuorum: writeQuorum, ElectionTimeout: electionTimeout}
		if i > 0 {
			cfg.Join = d.nodes[0].Addr()
		}
		n, err := replica.New(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		srv, err := service.ServeNode(n, "127.0.0.1:0")
		if err != nil {
			n.Close()
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		d.srvs = append(d.srvs, srv)
		d.dbs = append(d.dbs, n.DB())
		d.addrs = append(d.addrs, srv.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(d.nodes[0].Peers()) < 3 || d.nodes[1].LeaderID() != "n1" || d.nodes[2].LeaderID() != "n1" {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("followers did not join the leader within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

// caughtUp waits until every follower has applied the leader's last entry.
func (d *deployment) caughtUp(timeout time.Duration) error {
	if d.nodes == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		want := d.nodes[0].Applied()
		ok := true
		for _, f := range d.nodes[1:] {
			if f.Applied() != want {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			var got []string
			for _, n := range d.nodes {
				got = append(got, fmt.Sprintf("%s=%d", n.ID(), n.Applied()))
			}
			return fmt.Errorf("followers not caught up after %v: applied %s", timeout, strings.Join(got, " "))
		}
		time.Sleep(time.Millisecond)
	}
}

// regSnap is a flattened scrape of every node's registry, one map per node.
type regSnap []map[string]float64

func scrape(regs []*obs.Registry) regSnap {
	out := make(regSnap, len(regs))
	for i, r := range regs {
		out[i] = obs.Flatten(r.Gather())
	}
	return out
}

// delta is the change of key between two scrapes, summed over nodes.
func delta(a, b regSnap, key string) float64 {
	var d float64
	for i := range b {
		d += b[i][key] - a[i][key]
	}
	return d
}

// maxDelta is the largest per-node change of key.
func maxDelta(a, b regSnap, key string) float64 {
	var m float64
	for i := range b {
		if d := b[i][key] - a[i][key]; d > m {
			m = d
		}
	}
	return m
}

// histMean is the mean of the observations histogram name{labels} received
// between two scrapes, over all nodes (0 without observations).
func histMean(a, b regSnap, name, labels string) float64 {
	n := delta(a, b, name+"_count"+labels)
	if n == 0 {
		return 0
	}
	return delta(a, b, name+"_sum"+labels) / n
}
