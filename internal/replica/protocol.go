package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sort"

	"osprey/internal/codec"
	"osprey/internal/minisql"
)

// Role is a node's position in the cluster.
type Role int32

// Cluster roles.
const (
	RoleFollower Role = iota
	RoleLeader
)

func (r Role) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "follower"
}

// Peer identifies one cluster member: its replication endpoint (log
// shipping), its EMEWS service endpoint (client traffic), and its promotion
// priority. The leader broadcasts the full peer list in every heartbeat so
// followers can run the deterministic promotion protocol without a separate
// membership service.
type Peer struct {
	ID       string
	Priority int
	ReplAddr string
	SvcAddr  string
}

// rankPeers orders peers by promotion rank: highest priority first, ties
// broken by lowest ID. Every node computes the same order from the same
// peer list, which is what makes failover deterministic.
func rankPeers(peers []Peer) {
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].Priority != peers[j].Priority {
			return peers[i].Priority > peers[j].Priority
		}
		return peers[i].ID < peers[j].ID
	})
}

// frameType tags one message of the log-shipping protocol.
type frameType uint8

const (
	// frameJoin: follower -> leader. Announce identity, term, and last
	// applied index. The leader replies with frameSnapshot, or — when the
	// joiner is resuming within the leader's own term and the WAL still
	// holds its position — a frameHeartbeat hello followed by the entries
	// after From (incremental catch-up, no re-bootstrap). From 0 always
	// forces a snapshot.
	frameJoin frameType = iota
	// frameProbe: any -> any. Ask a node for its role, known leader, and
	// applied index; answered with frameStatus. Used during elections (the
	// majority + log gate) and counted toward the receiving leader's
	// majority lease. Carries the prober's Peer identity.
	frameProbe
	// frameStatus: reply to frameProbe.
	frameStatus
	// frameNotLeader: join/probe reached a non-leader; carries the sender's
	// best guess at the current leader.
	frameNotLeader
	// frameSnapshot: leader -> follower. Full database snapshot at SnapIndex;
	// subsequent entries continue from there.
	frameSnapshot
	// frameHeartbeat: leader -> follower. Liveness plus current term and
	// membership, sent when no entries are flowing.
	frameHeartbeat
	// frameAck: follower -> leader. Cumulative applied index, used for WAL
	// compaction and catch-up monitoring.
	frameAck
	// frameEntries: leader -> follower. A group-committed batch of
	// consecutive log entries in one frame: the follower applies them in
	// order and acks once at the batch high-water mark, so N concurrent
	// writes cost ~1 replication round trip instead of N.
	frameEntries
	// frameClaim: candidate -> any. Claim leadership of Term (strictly above
	// the receiver's current term), carrying the candidate's log position
	// (AppliedTerm, Applied). Answered with frameStatus whose Granted says
	// whether the receiver adopted the claimed term. Granting is the vote
	// that makes promotion safe: the granter bumps its term immediately —
	// detaching from any current leader and refusing its further frames —
	// so a majority of grants guarantees the old leader can no longer
	// assemble a write quorum. Probe-gated promotion alone cannot do this:
	// it elects a new leader without deposing the old one, and an
	// asymmetric partition then yields two leaders acking writes in
	// parallel until one history is rolled back.
	frameClaim
)

// frame is the single wire message of the replication protocol (encoding
// below). Field use depends on Type.
type frame struct {
	Type frameType
	Term uint64

	// frameJoin / frameProbe
	Peer Peer
	From uint64 // joiner's applied index

	// frameStatus / frameNotLeader / frameSnapshot / frameHeartbeat: the
	// sender's role and the leader it knows of (zero when none).
	Role   Role
	Leader Peer
	Peers  []Peer

	// frameSnapshot
	Snapshot  []byte
	SnapIndex uint64

	// frameEntries: consecutive entries, ascending index
	Entries []minisql.LogEntry

	// frameAck (cumulative applied index) and frameStatus (the responder's
	// applied index, feeding the election log gate)
	Applied uint64

	// frameEntries / frameHeartbeat: the leader's quorum commit watermark.
	// Followers gate their watch-hub publication on it, so subscribers on
	// any node only ever see transitions the cluster has durably committed
	// (an applied-but-unacked entry can still be rolled back). Zero in
	// frames from roles that do not ship it — a no-op for the receiver's
	// gate.
	Committed uint64

	// frameJoin / frameClaim / frameStatus: the term of the leadership that
	// produced the sender's newest applied entry. Two logs agree up to the
	// smaller applied index if and only if their applied terms lead back to
	// the same leader — the comparison behind both the claim's log gate and
	// the join resume gate.
	AppliedTerm uint64

	// frameStatus reply to frameClaim: the receiver adopted the claimed term.
	Granted bool
}

// Frame encoding. Every message on a replication connection is one codec
// frame (uvarint length, then the message) of at most maxFrameBytes: the
// byte frameMagic, then every field whatever the type,
//
//	type | term | peer | from | role | leader | peers | snapshot |
//	snapIndex | entries | applied | committed | appliedTerm | granted
//
// Type is one byte, integers are uvarints (role and priority zigzag), a
// Peer is id | priority | replAddr | svcAddr, peers and entries are a count
// then the elements, an entry is the disk log's payload encoding
// (minisql.AppendEntry), and the snapshot is length-prefixed opaque bytes.
// The magic makes a peer speaking any other encoding fail its first frame.
const (
	frameMagic = 0xD7
	// maxFrameBytes bounds one frame, snapshots included.
	maxFrameBytes = 1 << 30
	// keepBufBytes caps the buffers a connection keeps between frames, so a
	// snapshot-sized buffer is not held for the connection's lifetime.
	keepBufBytes = 1 << 20
)

func appendPeer(buf []byte, p *Peer) []byte {
	buf = codec.AppendString(buf, p.ID)
	buf = binary.AppendVarint(buf, int64(p.Priority))
	buf = codec.AppendString(buf, p.ReplAddr)
	return codec.AppendString(buf, p.SvcAddr)
}

func decodePeer(d *codec.Dec, p *Peer) {
	p.ID = d.Str()
	p.Priority = int(d.Varint())
	p.ReplAddr = d.Str()
	p.SvcAddr = d.Str()
}

func appendFrame(buf []byte, f *frame) []byte {
	buf = append(buf, frameMagic, byte(f.Type))
	buf = binary.AppendUvarint(buf, f.Term)
	buf = appendPeer(buf, &f.Peer)
	buf = binary.AppendUvarint(buf, f.From)
	buf = binary.AppendVarint(buf, int64(f.Role))
	buf = appendPeer(buf, &f.Leader)
	buf = binary.AppendUvarint(buf, uint64(len(f.Peers)))
	for i := range f.Peers {
		buf = appendPeer(buf, &f.Peers[i])
	}
	buf = codec.AppendBytes(buf, f.Snapshot)
	buf = binary.AppendUvarint(buf, f.SnapIndex)
	buf = binary.AppendUvarint(buf, uint64(len(f.Entries)))
	for _, e := range f.Entries {
		buf = minisql.AppendEntry(buf, e)
	}
	buf = binary.AppendUvarint(buf, f.Applied)
	buf = binary.AppendUvarint(buf, f.Committed)
	buf = binary.AppendUvarint(buf, f.AppliedTerm)
	return codec.AppendBool(buf, f.Granted)
}

var errBadFrame = errors.New("replica: malformed frame")

// decodeFrame decodes one whole message into f. f.Snapshot aliases the
// message buffer.
func decodeFrame(d *codec.Dec, f *frame) error {
	if d.Byte() != frameMagic {
		return errBadFrame
	}
	f.Type = frameType(d.Byte())
	f.Term = d.Uvarint()
	decodePeer(d, &f.Peer)
	f.From = d.Uvarint()
	f.Role = Role(d.Varint())
	decodePeer(d, &f.Leader)
	if n := d.Count(); n > 0 {
		f.Peers = make([]Peer, n)
		for i := range f.Peers {
			decodePeer(d, &f.Peers[i])
		}
	}
	f.Snapshot = d.Bytes()
	f.SnapIndex = d.Uvarint()
	if n := d.Count(); n > 0 {
		f.Entries = make([]minisql.LogEntry, n)
		for i := range f.Entries {
			f.Entries[i] = minisql.DecodeEntry(d)
		}
	}
	f.Applied = d.Uvarint()
	f.Committed = d.Uvarint()
	f.AppliedTerm = d.Uvarint()
	f.Granted = d.Bool()
	if !d.Done() {
		return errBadFrame
	}
	return nil
}

// frameConn is one replication connection: frames are encoded into a
// reusable buffer, written through a buffered writer and flushed once per
// frame, and read back through a buffered reader into a reusable buffer.
// One goroutine may send while another receives; two senders (or two
// receivers) must not share it.
type frameConn struct {
	net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	enc []byte
	buf []byte
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{Conn: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// send writes f as one frame and flushes it.
func (c *frameConn) send(f *frame) error {
	c.enc = appendFrame(c.enc[:0], f)
	err := codec.WriteFrame(c.w, c.enc)
	if err == nil {
		err = c.w.Flush()
	}
	if cap(c.enc) > keepBufBytes {
		c.enc = nil
	}
	return err
}

// recv reads the next frame into f, which it resets first.
func (c *frameConn) recv(f *frame) error {
	buf, err := codec.ReadFrame(c.r, c.buf, maxFrameBytes)
	c.buf = buf
	if err != nil {
		return err
	}
	*f = frame{}
	var d codec.Dec
	d.Reset(buf)
	err = decodeFrame(&d, f)
	if f.Snapshot != nil || cap(c.buf) > keepBufBytes {
		// The snapshot aliases the buffer: hand the buffer over with it.
		c.buf = nil
	}
	return err
}
