package minisql

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkEntryPayload decodes payload as one disk-log entry. Decoding must
// allocate in proportion to the payload, and a payload that decodes must
// re-encode to bytes that decode and re-encode identically.
func checkEntryPayload(t *testing.T, payload []byte) {
	var e LogEntry
	var err error
	if n := allocated(func() { e, err = decodeEntry(payload) }); n > 64*uint64(len(payload))+1<<20 {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), n)
	}
	if err != nil {
		return
	}
	once := AppendEntry(nil, e)
	again, err := decodeEntry(once)
	if err != nil {
		t.Fatalf("re-decode of a re-encoded entry: %v", err)
	}
	if twice := AppendEntry(nil, again); !bytes.Equal(once, twice) {
		t.Fatalf("entry not stable under re-encoding:\n%x\n%x", once, twice)
	}
}

// FuzzDiskLog feeds arbitrary bytes to the record reader and the entry
// decoder, both as a framed record and as a bare payload (the CRC would
// otherwise keep the fuzzer away from the entry decoder). Neither may
// panic; the record reader must stay inside its input; every decoded entry
// must round-trip.
func FuzzDiskLog(f *testing.F) {
	f.Add(appendRecord(nil, AppendEntry(nil, testEntry(1))))
	f.Add(AppendEntry(nil, testEntry(1<<40)))
	f.Add(AppendEntry(nil, LogEntry{Index: 2}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, size, err := readRecord(data); err == nil {
			if size > len(data) || len(payload) > size {
				t.Fatalf("record of %d bytes (payload %d) read from %d input bytes", size, len(payload), len(data))
			}
			checkEntryPayload(t, payload)
		}
		checkEntryPayload(t, data)
	})
}

// FuzzParse feeds arbitrary text to the lexer and parser, raw and after the
// IN-list normalization the plan cache applies. Neither may panic, and
// parsing is deterministic.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL)",
		"CREATE ORDERED INDEX IF NOT EXISTS t_score ON t (score, id)",
		"INSERT INTO t (id, name) VALUES (?, 'it''s'), (2, NULL)",
		"SELECT id, COUNT(*) FROM t WHERE name = ? AND id IN (?...) ORDER BY score DESC LIMIT 10",
		"SELECT MIN(score), MAX(score) FROM t WHERE id >= -1.5e3 OR NOT name IS NULL",
		"UPDATE t SET score = score + 1 WHERE id IN (1, 2, 3)",
		"DELETE FROM t WHERE id <> ?;",
		"BEGIN", "COMMIT", "ROLLBACK", "DROP TABLE IF EXISTS t",
		"", "'", "((((", "SELECT * FROM",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, n, spread, err := parse(sql)
		stmt2, n2, spread2, err2 := parse(sql)
		if (err == nil) != (err2 == nil) || n != n2 || spread != spread2 || (stmt == nil) != (stmt2 == nil) {
			t.Fatalf("parse(%q) not deterministic", sql)
		}
		parse(normalizeIN(sql))
	})
}
