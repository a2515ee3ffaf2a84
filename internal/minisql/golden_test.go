package minisql

import (
	"encoding/hex"
	"os"
	"reflect"
	"testing"
)

// goldenRecord pins the bytes of one disk-log record: the CRC'd record frame
// around the entry payload (uvarint index, statement count, then per
// statement the SQL text and its typed arguments). Logs already on disk must
// keep recovering, so these bytes may not change.
const goldenRecord = "47000000bc99e0d4ac020221494e5345525420494e544f20742056414c554553" +
	"20283f2c203f2c203f2c203f2904010d020000000000000a400304ceb1ceb200" +
	"0d44454c4554452046524f4d207400"

// TestDiskLogGoldenBytes appends one entry holding every argument kind to a
// fresh log, compares the segment file with the pinned record, and reads the
// pinned record back through a reopened log.
func TestDiskLogGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	e := LogEntry{Index: 300, Stmts: []Stmt{
		{SQL: "INSERT INTO t VALUES (?, ?, ?, ?)", Args: []Value{
			Int64(-7), Float64(3.25), Text("αβ"), Null(),
		}},
		{SQL: "DELETE FROM t"},
	}}
	d, err := OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 300))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenRecord {
		t.Errorf("disk-log record bytes changed:\n got %s\nwant %s", got, goldenRecord)
	}

	raw, _ := hex.DecodeString(goldenRecord)
	if err := os.WriteFile(segmentPath(dir, 300), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDiskLog(dir, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, ok, err := d.Entries(299)
	if err != nil || !ok || len(got) != 1 || !reflect.DeepEqual(normEntry(got[0]), normEntry(e)) {
		t.Fatalf("golden record read back as %+v (ok %v, %v), want %+v", got, ok, err, e)
	}
}
