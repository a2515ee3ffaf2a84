package minisql

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testEntry(idx uint64) LogEntry {
	return LogEntry{
		Index: idx,
		Stmts: []Stmt{
			{
				SQL: "INSERT INTO t VALUES (?, ?, ?, ?)",
				Args: []Value{
					{Kind: KindInt, Int: int64(idx)},
					{Kind: KindFloat, Float: 3.25},
					{Kind: KindText, Text: "payload-αβ"},
					{Kind: KindNull},
				},
			},
			{SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []Value{
				{Kind: KindInt, Int: -42},
				{Kind: KindText, Text: ""},
			}},
		},
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, e := range []LogEntry{
		testEntry(1),
		{Index: 7, Stmts: []Stmt{{SQL: "DELETE FROM t"}}},
		{Index: 1 << 40, Stmts: nil},
	} {
		buf := AppendEntry(nil, e)
		got, err := decodeEntry(buf)
		if err != nil {
			t.Fatalf("decode entry %d: %v", e.Index, err)
		}
		if !reflect.DeepEqual(normEntry(got), normEntry(e)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

// normEntry maps nil and empty slices to a comparable form: the codec does
// not distinguish them, and neither does replay.
func normEntry(e LogEntry) LogEntry {
	if len(e.Stmts) == 0 {
		e.Stmts = nil
	}
	for i := range e.Stmts {
		if len(e.Stmts[i].Args) == 0 {
			e.Stmts[i].Args = nil
		}
	}
	return e
}

func TestDiskLogAppendReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.LastIndex(); got != 20 {
		t.Fatalf("LastIndex after reopen = %d, want 20", got)
	}
	out, ok, err := d2.Entries(0)
	if err != nil || !ok {
		t.Fatalf("Entries(0): ok=%v err=%v", ok, err)
	}
	if len(out) != 20 {
		t.Fatalf("got %d entries, want 20", len(out))
	}
	for i, e := range out {
		if !reflect.DeepEqual(normEntry(e), normEntry(testEntry(uint64(i+1)))) {
			t.Fatalf("entry %d corrupted on reopen", i+1)
		}
	}
	// The reopened log is anchored: a gap must be rejected.
	if err := d2.Append(testEntry(25)); err == nil {
		t.Fatal("gap append accepted")
	}
	if err := d2.Append(testEntry(21)); err != nil {
		t.Fatalf("contiguous append after reopen: %v", err)
	}
}

func TestDiskLogSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 256, false, 0) // tiny segments force rolling
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	out, ok, err := d.Entries(0)
	if err != nil || !ok || len(out) != n {
		t.Fatalf("Entries(0) after roll: n=%d ok=%v err=%v", len(out), ok, err)
	}
	// Partial reads start mid-segment-chain.
	out, ok, err = d.Entries(n / 2)
	if err != nil || !ok || len(out) != n/2 {
		t.Fatalf("Entries(%d): n=%d ok=%v err=%v", n/2, len(out), ok, err)
	}
	if out[0].Index != n/2+1 {
		t.Fatalf("first entry after %d is %d", n/2, out[0].Index)
	}
}

func TestDiskLogCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip bytes near the end of the single segment: the last record's CRC
	// breaks, earlier records stay intact.
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 5; i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer d2.Close()
	last := d2.LastIndex()
	if last != 9 {
		t.Fatalf("LastIndex after tail corruption = %d, want 9", last)
	}
	out, ok, err := d2.Entries(0)
	if err != nil || !ok || len(out) != 9 {
		t.Fatalf("entries after truncation: n=%d ok=%v err=%v", len(out), ok, err)
	}
	// The log keeps working past the truncation point.
	if err := d2.Append(testEntry(10)); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

func TestDiskLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn write: half a record's worth of extra garbage at the tail.
	seg := segmentPath(dir, 1)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 9, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.LastIndex(); got != 5 {
		t.Fatalf("LastIndex after torn tail = %d, want 5", got)
	}
	if err := d2.Append(testEntry(6)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
}

func TestDiskLogTruncateTo(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 256, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	dropped := d.TruncateTo(n / 2)
	after := d.Stats()
	if dropped == 0 {
		t.Fatal("TruncateTo dropped nothing")
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments not reduced: %d -> %d", before.Segments, after.Segments)
	}
	// Entries past the truncation point must still read back completely.
	out, ok, err := d.Entries(n / 2)
	if err != nil || !ok || len(out) != n/2 {
		t.Fatalf("Entries(%d) after truncate: n=%d ok=%v err=%v", n/2, len(out), ok, err)
	}
	// A position truncated away must report unavailable, not silently skip.
	if _, ok, _ := d.Entries(0); ok {
		t.Fatal("Entries(0) still ok after truncation")
	}
}

func TestDiskLogReset(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Reset(1000); err != nil {
		t.Fatal(err)
	}
	if got := d.LastIndex(); got != 1000 {
		t.Fatalf("LastIndex after Reset = %d, want 1000", got)
	}
	if err := d.Append(testEntry(999)); err == nil {
		t.Fatal("append below reset base accepted")
	}
	if err := d.Append(testEntry(1001)); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	out, ok, err := d.Entries(1000)
	if err != nil || !ok || len(out) != 1 || out[0].Index != 1001 {
		t.Fatalf("Entries after Reset: %v ok=%v err=%v", out, ok, err)
	}
}

func TestDiskLogWaitDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, true, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var observed bool
	d.SetFsyncObserver(func(time.Duration) { observed = true })
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WaitDurable(3, 5*time.Second); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	st := d.Stats()
	if st.Synced < 3 {
		t.Fatalf("synced=%d after WaitDurable(3)", st.Synced)
	}
	if st.Fsyncs == 0 || !observed {
		t.Fatalf("no fsync recorded (fsyncs=%d observed=%v)", st.Fsyncs, observed)
	}
}

func TestDiskLogIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatalf("open with foreign file present: %v", err)
	}
	defer d.Close()
	if err := d.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
}

// TestDiskLogEntriesToleratesTornActiveTail: a read racing a concurrent
// append can see a partially written record beyond the flushed prefix of the
// active segment. Entries must bound its scan to the bytes recorded under
// the lock instead of reporting corruption for the torn tail.
func TestDiskLogEntriesToleratesTornActiveTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the in-flight record: bytes past the tracked segment size.
	d.mu.Lock()
	path := d.segs[len(d.segs)-1].path
	d.mu.Unlock()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, ok, err := d.Entries(0)
	if err != nil || !ok {
		t.Fatalf("Entries with torn active tail: ok=%v err=%v", ok, err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d entries, want 5", len(out))
	}
}
