package minisql

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleQueries are the indexed WHERE shapes the index-vs-scan oracle runs:
// `=`, IN lists (explicit parameters, which normalize to the spread form,
// the spread form itself, and literals), `= … ORDER BY … LIMIT` over single
// and composite ordered indexes, and multi-conjunct and aggregate forms.
// The number of probe arguments each takes is its `?` count, except the
// spread, which binds a random width; LIMIT arguments are appended.
var oracleQueries = []string{
	"SELECT * FROM t WHERE id = ?",
	"SELECT * FROM t WHERE k = ?",
	"SELECT * FROM t WHERE name = ?",
	"SELECT * FROM t WHERE score = ?",
	"SELECT * FROM t WHERE ? = k",
	"SELECT id, name FROM t WHERE k IN (?, ?, ?)",
	"SELECT id FROM t WHERE name IN (?...)",
	"SELECT id FROM t WHERE score IN (?...)",
	"SELECT id FROM t WHERE id IN (?...) ORDER BY id ASC LIMIT ?",
	"SELECT * FROM t WHERE k = 3",
	"SELECT * FROM t WHERE name = 5",
	"SELECT * FROM t WHERE k = '05'",
	"SELECT * FROM t WHERE k = 2.0",
	"SELECT * FROM t WHERE score = 2",
	"SELECT id FROM t WHERE name IN ('5', 7, NULL, 'abc')",
	"SELECT id FROM t WHERE k IN (NULL, 99, 1.5)",
	"SELECT id FROM t WHERE k = ? AND name = ?",
	"SELECT COUNT(*) FROM t WHERE name = ?",
	"SELECT * FROM t WHERE k = ? ORDER BY prio DESC, id ASC LIMIT ?",
	"SELECT * FROM t WHERE k = ? ORDER BY prio ASC, id ASC LIMIT ?",
	"SELECT * FROM t WHERE name = ? ORDER BY prio ASC LIMIT ?",
	"SELECT * FROM t WHERE score = ? ORDER BY prio DESC, k ASC LIMIT ?",
	"SELECT id FROM t ORDER BY prio DESC, id ASC LIMIT ?",
}

// oracleProbe draws one probe value: hits and misses of every kind, NULL,
// integral and fractional floats, ints and floats against TEXT columns,
// text against numeric ones ('05' and 'abc' on INTEGER, '1.5' on REAL), and
// numbers at 2^53, where int and float64 stop converting exactly.
func oracleProbe(rng *rand.Rand) any {
	pool := []any{
		nil,
		int64(rng.Intn(8)), int64(rng.Intn(8)), int64(rng.Intn(40)), int64(1000 + rng.Intn(9)),
		float64(rng.Intn(8)), 2.5, 1.5, 1e300, float64(1 << 53), int64(1<<53 + 1),
		"05", "abc", "5", "7", "1.5", "2", "", "x",
	}
	return pool[rng.Intn(len(pool))]
}

// oracleRow draws the non-key columns of a row: small integer keys with
// repeats, names that collide with numbers' text forms, scores that are
// integral, fractional or NULL, values at 2^53, and a handful of priorities.
func oracleRow(rng *rand.Rand) (k, name, score, prio any) {
	if rng.Intn(8) > 0 {
		k = int64(rng.Intn(8))
	} else if rng.Intn(2) == 0 {
		k = int64(1<<53 + 1)
	}
	if rng.Intn(8) > 0 {
		names := []any{"5", "05", "7", "abc", "1.5", "", "x", int64(2)}
		name = names[rng.Intn(len(names))]
	}
	if rng.Intn(8) > 0 {
		scores := []any{1.5, 2.0, int64(3), "2", 2.5, 0.0, float64(1 << 53)}
		score = scores[rng.Intn(len(scores))]
	}
	return k, name, score, int64(rng.Intn(4))
}

// renderRows prints a result with each value's kind, so 5 and '5' differ.
func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s,", v.Kind, v)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// TestIndexScanOracle drives seeded insert/update/delete churn through two
// engines holding the same rows — one with primary-key, hash, ordered and
// composite-ordered indexes, one with no index at all, so every statement
// it runs is a forced scan — and after each step requires every indexed
// WHERE shape to return identical rows in identical order from both.
// Mutations go through indexed probes too, and must affect the same rows.
func TestIndexScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runIndexScanOracle(t, seed) })
	}
}

func runIndexScanOracle(t *testing.T, seed int64) {
	idx, ref := NewEngine(), NewEngine()
	const cols = "k INTEGER, name TEXT, score REAL, prio INTEGER)"
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, " + cols,
		"CREATE INDEX t_k ON t (k)",
		"CREATE INDEX t_name ON t (name)",
		"CREATE INDEX t_score ON t (score)",
		"CREATE ORDERED INDEX t_prio ON t (prio)",
		"CREATE ORDERED INDEX t_prio_id ON t (prio, id)",
	} {
		if _, err := idx.Exec(sql); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, sql, err)
		}
	}
	if _, err := ref.Exec("CREATE TABLE t (id INTEGER, " + cols); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	// same runs one statement on both engines and requires the same outcome.
	same := func(step int, sql string, args ...any) {
		t.Helper()
		ri, erri := idx.Exec(sql, args...)
		rr, errr := ref.Exec(sql, args...)
		if (erri == nil) != (errr == nil) {
			t.Fatalf("seed %d step %d: %q %v: indexed err %v, scan err %v", seed, step, sql, args, erri, errr)
		}
		if erri != nil {
			return
		}
		if gi, gr := renderRows(ri), renderRows(rr); gi != gr || ri.RowsAffected != rr.RowsAffected {
			path, _ := idx.Explain(sql, args...)
			t.Fatalf("seed %d step %d: %q %v (path %s) diverges:\n indexed: %s (affected %d)\n    scan: %s (affected %d)",
				seed, step, sql, args, path, gi, ri.RowsAffected, gr, rr.RowsAffected)
		}
	}
	// inTx runs a statement inside a transaction on both engines and rolls
	// both back, exercising the undo path's index and scan-order upkeep.
	inTx := func(step int, sql string, args ...any) {
		t.Helper()
		rollback := errors.New("rollback")
		for _, e := range []*Engine{idx, ref} {
			err := e.Tx(func(tx *Tx) error {
				if _, err := tx.Exec(sql, args...); err != nil {
					return err
				}
				return rollback
			})
			if !errors.Is(err, rollback) {
				t.Fatalf("seed %d step %d: rolled-back %q: %v", seed, step, sql, err)
			}
		}
	}

	nextID := int64(1)
	for step := 0; step < 250; step++ {
		k, name, score, prio := oracleRow(rng)
		switch op := rng.Intn(12); {
		case op < 5:
			id := nextID
			if rng.Intn(10) == 0 && nextID > 1 {
				id = rng.Int63n(nextID) + 1 // duplicate or reused id
			} else {
				nextID++
			}
			same(step, "INSERT INTO t (id, k, name, score, prio) VALUES (?, ?, ?, ?, ?)", id, k, name, score, prio)
		case op < 7:
			same(step, "UPDATE t SET k = ?, name = ?, score = ?, prio = ? WHERE id = ?",
				k, name, score, prio, oracleProbe(rng))
		case op < 8:
			same(step, "UPDATE t SET prio = ? WHERE name = ?", prio, oracleProbe(rng))
		case op < 9:
			same(step, "DELETE FROM t WHERE id = ?", rng.Int63n(nextID+2))
		case op < 10:
			same(step, "DELETE FROM t WHERE k IN (?...)", oracleProbe(rng), oracleProbe(rng))
		case op < 11:
			inTx(step, "DELETE FROM t WHERE k = ?", oracleProbe(rng))
		default:
			inTx(step, "UPDATE t SET k = ?, name = ? WHERE prio = ?", k, name, prio)
		}

		for _, q := range oracleQueries {
			for rep := 0; rep < 3; rep++ {
				var args []any
				n := strings.Count(q, "?") - strings.Count(q, "?...")
				if strings.Contains(q, "?...") {
					n += rng.Intn(5)
				}
				if strings.Contains(q, "LIMIT ?") {
					n--
				}
				for i := 0; i < n; i++ {
					args = append(args, oracleProbe(rng))
				}
				if strings.Contains(q, "LIMIT ?") {
					args = append(args, rng.Intn(6))
				}
				same(step, q, args...)
			}
		}
	}
}

// TestRollbackKeepsRowidOrder: a row whose delete is rolled back after
// compaction already dropped its tombstone goes back at its rowid position,
// so a scan still returns rows in the order an index probe does.
func TestRollbackKeepsRowidOrder(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 1; i <= 3000; i++ {
		mustExec(t, e, "INSERT INTO t (id, v) VALUES (?, ?)", i, i%2)
	}
	rollback := errors.New("rollback")
	err := e.Tx(func(tx *Tx) error {
		// 2100 deletes cross the compaction threshold part-way through.
		if _, err := tx.Exec("DELETE FROM t WHERE v = 1"); err != nil {
			return err
		}
		if _, err := tx.Exec("DELETE FROM t WHERE id <= 1200"); err != nil {
			return err
		}
		return rollback
	})
	if !errors.Is(err, rollback) {
		t.Fatal(err)
	}
	scan := mustExec(t, e, "SELECT id FROM t")
	probe := mustExec(t, e, "SELECT id FROM t WHERE id IN (?...)", 1, 2, 2999, 3000)
	if len(scan.Rows) != 3000 {
		t.Fatalf("scan after rollback: %d rows, want 3000", len(scan.Rows))
	}
	for i, row := range scan.Rows {
		if row[0].AsInt() != int64(i+1) {
			t.Fatalf("scan after rollback: row %d holds id %d, want rowid order", i, row[0].AsInt())
		}
	}
	if fmt.Sprint(probe.Rows) != "[[1] [2] [2999] [3000]]" {
		t.Fatalf("probe after rollback = %v", probe.Rows)
	}
}

// TestExplainPaths pins the access path each statement shape resolves to:
// a probe that misses stays a probe (empty result, no scan), an all-miss or
// all-NULL IN list likewise, an inexact probe value scans, and an ordered
// walk yields to a selective probe.
func TestExplainPaths(t *testing.T) {
	e := NewEngine()
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, name TEXT, prio INTEGER)",
		"CREATE INDEX t_k ON t (k)",
		"CREATE INDEX t_name ON t (name)",
		"CREATE ORDERED INDEX t_prio ON t (prio, id)",
	} {
		mustExec(t, e, sql)
	}
	for i := 1; i <= 200; i++ {
		mustExec(t, e, "INSERT INTO t (id, k, name, prio) VALUES (?, ?, ?, ?)", i, i%2, fmt.Sprint(i), i%5)
	}
	cases := []struct {
		sql  string
		args []any
		want string
	}{
		{"SELECT * FROM t WHERE id = ?", []any{5}, "pk t(id)"},
		{"SELECT * FROM t WHERE id = ?", []any{99999}, "pk t(id)"},
		{"SELECT * FROM t WHERE name = ?", []any{"absent"}, "hash t(name)"},
		{"SELECT * FROM t WHERE name = ?", []any{7}, "hash t(name)"},
		{"SELECT * FROM t WHERE k = ?", []any{nil}, "hash t(k)"},
		{"SELECT * FROM t WHERE k = ?", []any{1.0}, "hash t(k)"},
		{"SELECT * FROM t WHERE k = ?", []any{"05"}, "scan t"},
		{"SELECT * FROM t WHERE k = ?", []any{"abc"}, "scan t"},
		{"SELECT id FROM t WHERE id IN (?...) ORDER BY id ASC LIMIT ?", []any{1000, 1001, 1}, "pk t(id)"},
		{"UPDATE t SET prio = ? WHERE id = ?", []any{1, 99999}, "pk t(id)"},
		{"DELETE FROM t WHERE id = ?", []any{99999}, "pk t(id)"},
		{"DELETE FROM t WHERE id IN (?, ?)", []any{nil, nil}, "pk t(id)"},
		{"SELECT * FROM t WHERE k = ? ORDER BY prio DESC, id ASC LIMIT ?", []any{1, 5}, "ordered t(prio,id)"},
		{"SELECT * FROM t WHERE k = ? ORDER BY prio DESC, id ASC LIMIT ?", []any{7, 5}, "hash t(k)"},
		{"SELECT * FROM t WHERE prio > ?", []any{2}, "scan t"},
		{"SELECT COUNT(*) FROM t", nil, "scan t"},
	}
	for _, c := range cases {
		got, err := e.Explain(c.sql, c.args...)
		if err != nil {
			t.Fatalf("Explain(%q, %v): %v", c.sql, c.args, err)
		}
		if got != c.want {
			t.Errorf("Explain(%q, %v) = %q, want %q", c.sql, c.args, got, c.want)
		}
	}
	if _, err := e.Explain("INSERT INTO t (id) VALUES (1)"); err == nil {
		t.Error("Explain(INSERT) succeeded; want an error, inserts have no access path")
	}
	if _, err := e.Explain("SELECT * FROM nope WHERE id = 1"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Explain on a missing table: %v, want ErrNoSuchTable", err)
	}
}

// TestFullScansCounted: scan-path executions count per table, probes that
// miss do not, and a schema change re-plans a cached statement.
func TestFullScansCounted(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, e, "CREATE TABLE u (id INTEGER)")
	mustExec(t, e, "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
	if got := e.FullScans(); got["t"] != 0 || got["u"] != 0 || len(got) != 2 {
		t.Fatalf("fresh FullScans = %v, want both tables at 0", got)
	}
	mustExec(t, e, "SELECT * FROM t WHERE id = ?", 7)
	mustExec(t, e, "DELETE FROM t WHERE id IN (?...)", 8, 9)
	mustExec(t, e, "SELECT * FROM t WHERE v = ?", "b")
	mustExec(t, e, "SELECT * FROM t WHERE v = ?", "a")
	if got := e.FullScans()["t"]; got != 2 {
		t.Fatalf("t full scans = %d, want 2 (the two unindexed v probes)", got)
	}
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	mustExec(t, e, "SELECT * FROM t WHERE v = ?", "a")
	if got := e.FullScans()["t"]; got != 2 {
		t.Fatalf("t full scans after CREATE INDEX = %d, want 2: the cached statement must re-plan", got)
	}
	if path, _ := e.Explain("SELECT * FROM t WHERE v = ?", "zzz"); path != "hash t(v)" {
		t.Fatalf("path after CREATE INDEX = %q, want hash t(v)", path)
	}
}
