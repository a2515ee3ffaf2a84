package replica

import (
	"net"
	"testing"
	"time"
)

// fakeFollower is a hand-rolled replication peer: it joins the leader over
// raw frames and lets the test control exactly when entries are "applied" and
// acked, which is how the batching tests observe frame boundaries the real
// follower hides.
type fakeFollower struct {
	t    *testing.T
	conn *frameConn
}

func joinFake(t *testing.T, addr string, id string, term, from uint64) *fakeFollower {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(waitMax))
	f := &fakeFollower{t: t, conn: newFrameConn(conn)}
	join := frame{Type: frameJoin, Term: term, AppliedTerm: term, From: from,
		Peer: Peer{ID: id, ReplAddr: "127.0.0.1:1", SvcAddr: "svc-" + id}}
	if err := f.conn.send(&join); err != nil {
		t.Fatal(err)
	}
	hello := f.next()
	if hello.Type != frameHeartbeat {
		t.Fatalf("resume join got frame type %d, want heartbeat hello", hello.Type)
	}
	return f
}

func (f *fakeFollower) next() frame {
	f.t.Helper()
	var fr frame
	if err := f.conn.recv(&fr); err != nil {
		f.t.Fatalf("fake follower read: %v", err)
	}
	return fr
}

// nextEntries skips heartbeats until a data frame arrives.
func (f *fakeFollower) nextEntries() frame {
	f.t.Helper()
	for {
		fr := f.next()
		if fr.Type == frameEntries {
			return fr
		}
	}
}

func (f *fakeFollower) ack(applied uint64) {
	f.t.Helper()
	if err := f.conn.send(&frame{Type: frameAck, Applied: applied}); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fakeFollower) close() { f.conn.Close() }

// TestBatchShippingAndBatchAck: entries committed while a follower is behind
// ship as ONE frameEntries frame, and the follower's single cumulative ack
// at the batch high-water mark advances the quorum watermark for every entry
// in it — WaitQuorumIndex on the FIRST entry of the batch returns on that
// ack, not after any group-commit flush deadline (set here to an hour to
// make waiting on it unmistakable).
func TestBatchShippingAndBatchAck(t *testing.T) {
	leader, err := New(Config{
		ID: "gb1", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect,
		WriteQuorum:      1,
		GroupCommitDelay: time.Hour,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.SetServiceAddr("svc-gb1")
	leader.Start()

	// One sentinel write fixes the resume point, then five more form the
	// batch the fake follower will receive in a single frame.
	submitN(t, leader.DB(), 1)
	base := leader.Applied()
	ids := submitN(t, leader.DB(), 5)
	if len(ids) != 5 {
		t.Fatalf("submitted %d", len(ids))
	}
	high := leader.Applied()

	fol := joinFake(t, leader.Addr(), "gbf", leader.Term(), base)
	defer fol.close()
	fr := fol.nextEntries()
	if fr.Type != frameEntries {
		t.Fatalf("got frame type %d, want frameEntries", fr.Type)
	}
	if len(fr.Entries) != int(high-base) {
		t.Fatalf("batch carries %d entries, want %d in one frame", len(fr.Entries), high-base)
	}
	for i, ent := range fr.Entries {
		if want := base + uint64(i) + 1; ent.Index != want {
			t.Fatalf("entry %d has index %d, want %d", i, ent.Index, want)
		}
	}

	// Single cumulative ack at the batch high-water mark.
	fol.ack(high)
	start := time.Now()
	if err := leader.WaitQuorumIndex(base + 1); err != nil {
		t.Fatalf("WaitQuorumIndex(first entry of batch): %v", err)
	}
	if d := time.Since(start); d > waitMax/2 {
		t.Fatalf("quorum wait on first batch entry took %v — it must ride the batch ack", d)
	}
	// And the watermark covers the whole batch, not just the first entry.
	if err := leader.WaitQuorumIndex(high); err != nil {
		t.Fatalf("WaitQuorumIndex(batch high-water): %v", err)
	}
}

// TestMidBatchDeathReships: a follower that dies after applying only a
// prefix of a batch re-joins at its applied index and the leader re-ships
// exactly the unapplied suffix.
func TestMidBatchDeathReships(t *testing.T) {
	leader, err := New(Config{
		ID: "gb2", Priority: 3,
		Heartbeat: beat, ElectionTimeout: elect,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leader.SetServiceAddr("svc-gb2")
	leader.Start()

	submitN(t, leader.DB(), 1)
	base := leader.Applied()
	submitN(t, leader.DB(), 6)
	high := leader.Applied()

	fol := joinFake(t, leader.Addr(), "gbf2", leader.Term(), base)
	fr := fol.nextEntries()
	if fr.Type != frameEntries || len(fr.Entries) != int(high-base) {
		t.Fatalf("got frame type %d with %d entries, want the full %d-entry batch",
			fr.Type, len(fr.Entries), high-base)
	}
	// "Die" mid-batch: ack only the first half, then drop the connection.
	mid := base + (high-base)/2
	fol.ack(mid)
	fol.close()

	// The re-join announces the mid-batch position; the leader must resume
	// from exactly there — re-shipping mid+1..high, nothing more, no
	// snapshot bootstrap.
	re := joinFake(t, leader.Addr(), "gbf2", leader.Term(), mid)
	defer re.close()
	fr = re.nextEntries()
	if fr.Type != frameEntries {
		t.Fatalf("re-joined follower got frame type %d, want frameEntries", fr.Type)
	}
	if fr.Entries[0].Index != mid+1 {
		t.Fatalf("re-shipped batch starts at %d, want %d", fr.Entries[0].Index, mid+1)
	}
	if last := fr.Entries[len(fr.Entries)-1].Index; last != high {
		t.Fatalf("re-shipped batch ends at %d, want %d", last, high)
	}
}
