package replica

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"osprey/internal/codec"
	"osprey/internal/minisql"
)

// gobJoinFrame is the join frame (term 3, from 12) that nodes sent when the
// replication stream was gob-encoded: the first bytes a node of that build
// writes on a connection.
const gobJoinFrame = "ffde7f030101056672616d6501ff800001110104547970650106000104546572" +
	"6d01060001045065657201ff8200010446726f6d0106000104526f6c65010400" +
	"01084c65616465724944010c00010a4c65616465725265706c010c0001094c65" +
	"61646572537663010c000105506565727301ff84000108536e617073686f7401" +
	"0a000109536e6170496e6465780106000105456e74727901ff86000107456e74" +
	"7269657301ff900001074170706c6965640106000109436f6d6d697474656401" +
	"0600010b4170706c6965645465726d01060001074772616e7465640102000000" +
	"3fff81030101045065657201ff8200010401024944010c0001085072696f7269" +
	"747901040001085265706c41646472010c00010753766341646472010c000000" +
	"1dff830201010e5b5d7265706c6963612e5065657201ff840001ff8200002bff" +
	"85030101084c6f67456e74727901ff860001020105496e646578010600010553" +
	"746d747301ff8e0000001dff8d0201010e5b5d6d696e6973716c2e53746d7401" +
	"ff8e0001ff88000024ff870301010453746d7401ff88000102010353514c010c" +
	"0001044172677301ff8c0000001eff8b0201010f5b5d6d696e6973716c2e5661" +
	"6c756501ff8c0001ff8a000037ff890301010556616c756501ff8a0001040104" +
	"4b696e640106000103496e740104000105466c6f617401080001045465787401" +
	"0c00000021ff8f020101125b5d6d696e6973716c2e4c6f67456e74727901ff90" +
	"0001ff86000033ff8002030101026e320104010e3132372e302e302e313a3737" +
	"3031010e3132372e302e302e313a3736353500010c0800040300"

// fullFrame sets every frame field, so a round trip that loses one shows.
func fullFrame() frame {
	return frame{
		Type: frameSnapshot, Term: 7,
		Peer: Peer{ID: "n2", Priority: -1, ReplAddr: "10.0.0.2:7700", SvcAddr: "10.0.0.2:7654"},
		From: 12, Role: RoleLeader,
		Leader:   Peer{ID: "n1", Priority: 3, ReplAddr: "10.0.0.1:7700", SvcAddr: "10.0.0.1:7654"},
		Peers:    []Peer{{ID: "n1", Priority: 3}, {ID: "n2", ReplAddr: "r"}},
		Snapshot: []byte("snapshot bytes"), SnapIndex: 40,
		Entries: []minisql.LogEntry{
			{Index: 41, Stmts: []minisql.Stmt{{SQL: "INSERT INTO t VALUES (?, ?, ?, ?)", Args: []minisql.Value{
				minisql.Int64(-9), minisql.Float64(0.5), minisql.Text("x"), minisql.Null()}}}},
			{Index: 42, Stmts: []minisql.Stmt{{SQL: "DELETE FROM t"}}},
		},
		Applied: 42, Committed: 41, AppliedTerm: 6, Granted: true,
	}
}

// framed returns f as it travels on a connection: length prefix and message.
func framed(t testing.TB, f frame) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := codec.WriteFrame(w, appendFrame(nil, &f)); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return buf.Bytes()
}

// readOne decodes the first frame of data the way a connection does.
func readOne(data []byte) (frame, error) {
	c := &frameConn{r: bufio.NewReader(bytes.NewReader(data))}
	var f frame
	err := c.recv(&f)
	return f, err
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range []frame{fullFrame(), {}, {Type: frameAck, Applied: 1 << 40}} {
		got, err := readOne(framed(t, want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFrameRefusesGob: a node of the gob-encoded build and a node of this
// build cannot replicate; the new node must fail the old one's first frame
// with an error, not misread it.
func TestFrameRefusesGob(t *testing.T) {
	raw, _ := hex.DecodeString(gobJoinFrame)
	if _, err := readOne(raw); err == nil {
		t.Fatal("a gob-encoded join frame decoded without error")
	}
	var d codec.Dec
	d.Reset(raw)
	if err := decodeFrame(&d, &frame{}); !errors.Is(err, errBadFrame) {
		t.Fatalf("decodeFrame(gob bytes) = %v, want errBadFrame", err)
	}
}

// TestFrameTruncations: every proper prefix of a frame fails to decode.
func TestFrameTruncations(t *testing.T) {
	full := framed(t, fullFrame())
	for i := 0; i < len(full); i++ {
		if _, err := readOne(full[:i]); err == nil {
			t.Fatalf("truncation at %d/%d decoded", i, len(full))
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReplicaFrame feeds arbitrary bytes to the frame reader and decoder.
// Decoding must never panic, must allocate in proportion to the input
// rather than to the lengths it declares, and anything that decodes must
// re-encode to bytes that decode and re-encode identically.
func FuzzReplicaFrame(f *testing.F) {
	f.Add(framed(f, fullFrame()))
	f.Add(framed(f, frame{Type: frameHeartbeat, Term: 2, Leader: Peer{ID: "n1"}, Committed: 9}))
	f.Add(framed(f, frame{Type: frameAck, Applied: 3}))
	raw, _ := hex.DecodeString(gobJoinFrame)
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x03, frameMagic})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		var err error
		if n := allocated(func() { fr, err = readOne(data) }); n > 64*uint64(len(data))+4<<20 {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		once := appendFrame(nil, &fr)
		var d codec.Dec
		d.Reset(once)
		var again frame
		if err := decodeFrame(&d, &again); err != nil {
			t.Fatalf("re-decode of a re-encoded frame: %v", err)
		}
		if twice := appendFrame(nil, &again); !bytes.Equal(once, twice) {
			t.Fatalf("frame not stable under re-encoding:\n%x\n%x", once, twice)
		}
	})
}
