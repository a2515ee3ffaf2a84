package replica_test

import (
	"context"
	"testing"
	"time"

	"osprey/internal/chaos"
	"osprey/internal/replica"
)

// TestNoFsyncFollowerWithholdsFailedAck: a durable follower without fsync
// must not ack an entry its disk log failed to write. Its ack would count
// toward the write quorum for a write it cannot recover after kill -9,
// which the no-fsync durability contract promises to survive.
func TestNoFsyncFollowerWithholdsFailedAck(t *testing.T) {
	cfg := func(id string, prio int, join string) replica.Config {
		return replica.Config{
			ID: id, Priority: prio, Join: join, WriteQuorum: 1,
			Heartbeat: 10 * time.Millisecond, ElectionTimeout: 60 * time.Millisecond,
			Logf: t.Logf,
		}
	}
	leader, err := replica.New(cfg("l1", 3, ""))
	if err != nil {
		t.Fatal(err)
	}
	leader.SetServiceAddr("svc-l1")
	leader.Start()
	defer leader.Close()

	fs := chaos.NewFaultFS()
	fc := cfg("f1", 2, leader.Addr())
	fc.DataDir, fc.FS = t.TempDir(), fs
	fol, err := replica.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	fol.SetServiceAddr("svc-f1")
	fol.Start()
	defer fol.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(leader.Peers()) < 2 || fol.Applied() != leader.Applied() {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(2 * time.Millisecond)
	}
	submit := func() uint64 {
		t.Helper()
		res, err := leader.DB().Submit(context.Background(), "exp", 1, "payload")
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Token)
	}
	if err := leader.WaitQuorumIndex(submit()); err != nil {
		t.Fatalf("quorum wait with a healthy follower: %v", err)
	}

	fs.FailWrites(true)
	if err := leader.WaitQuorumIndex(submit()); err == nil {
		t.Fatal("quorum wait succeeded for an entry the follower's disk log failed to write")
	}
}
