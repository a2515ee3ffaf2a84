package minisql

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Common engine errors.
var (
	ErrNoSuchTable = errors.New("minisql: no such table")
	ErrNoTx        = errors.New("minisql: no transaction in progress")
	ErrInTx        = errors.New("minisql: transaction already in progress")
)

// Result is the outcome of executing one statement.
type Result struct {
	Columns      []string
	Rows         [][]Value
	RowsAffected int
	LastInsertID int64
}

// Engine is an embedded relational database. All methods are safe for
// concurrent use; statements execute under a single engine-wide writer lock,
// mirroring the paper's single resource-local database instance.
type Engine struct {
	mu     sync.Mutex
	tables map[string]*table

	inTx bool
	undo []undoOp

	hook       CommitHook     // observes committed mutating statements (wal.go)
	observer   CommitObserver // passive tap on every applied batch (wal.go)
	applying   bool           // true while replaying a shipped entry
	pending    []Stmt         // mutating statements awaiting commit
	lastLogged uint64         // highest log index the hook has assigned
	spreadN    int            // spread-IN width of the statement executing now

	plans     *planCache // parsed-statement LRU (plancache.go)
	schemaGen uint64     // bumped at every schema change; stamps access paths

	// Full-scan counters per table name (access.go): created under mu, then
	// bumped with one atomic add per scan-path execution.
	scans map[string]*atomic.Uint64

	// Slow-query log (obs.go): statements at or over slowNanos are reported
	// to slowFn. Both are read and written under mu; zero/nil means off.
	slowNanos int64
	slowFn    func(sql string, d time.Duration)
}

type undoKind uint8

const (
	undoInsert undoKind = iota // undone by deleting rowid (and restoring nextKey)
	undoDelete                 // undone by re-inserting row
	undoUpdate                 // undone by restoring old row
)

type undoOp struct {
	kind    undoKind
	table   string
	rowid   int64
	row     []Value
	nextKey int64 // undoInsert: the table's nextKey before the insert
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	return &Engine{
		tables: make(map[string]*table),
		plans:  newPlanCache(),
		scans:  make(map[string]*atomic.Uint64),
	}
}

// schemaChangedLocked invalidates every cached plan and access path after a
// schema change (CREATE/DROP TABLE, CREATE INDEX, Restore).
func (e *Engine) schemaChangedLocked() {
	e.schemaGen++
	e.plans.purge()
}

// Exec parses and executes a single SQL statement with positional `?`
// arguments. It returns the statement result.
func (e *Engine) Exec(sql string, args ...any) (*Result, error) {
	res, _, err := e.ExecLogged(sql, args...)
	return res, err
}

// ExecLogged is Exec returning, additionally, the commit token of the
// statement: the log index the commit hook assigned to this statement's WAL
// entry. The token is 0 for non-mutating statements, when no hook is
// installed, or while inside an explicit transaction (the whole transaction
// gets one entry at COMMIT — use TxLogged).
func (e *Engine) ExecLogged(sql string, args ...any) (*Result, uint64, error) {
	p, vals, err := e.bind(sql, args)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spreadN = spreadWidth(p, vals)
	if !e.inTx && isMutating(p.stmt) {
		// Implicit transaction: a mutating statement that fails part-way
		// (e.g. a bad row in a multi-row INSERT) must leave no trace —
		// partial effects would never reach the statement log, silently
		// diverging replicas from the leader.
		e.inTx = true
		e.undo = e.undo[:0]
		res, err := e.execLocked(p, vals, sql)
		if err != nil {
			e.rollbackLocked()
			e.inTx = false
			return nil, 0, err
		}
		e.inTx = false
		e.undo = e.undo[:0]
		idx := e.flushPendingLocked()
		return res, idx, nil
	}
	res, err := e.execLocked(p, vals, sql)
	var idx uint64
	if err == nil && !e.inTx {
		idx = e.flushPendingLocked()
	}
	return res, idx, err
}

// bind fetches the statement's plan and converts its arguments, checking
// that every fixed parameter has one.
func (e *Engine) bind(sql string, args []any) (*plan, []Value, error) {
	p, err := e.cachedParse(sql)
	if err != nil {
		return nil, nil, err
	}
	if len(args) < p.nparams {
		return nil, nil, fmt.Errorf("minisql: statement has %d parameters, %d arguments given (in %q)",
			p.nparams, len(args), compactSQL(sql))
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
	}
	return p, vals, nil
}

// spreadWidth is the number of arguments the statement's IN (?...) list
// absorbs in an execution with args: 0 when it has no spread.
func spreadWidth(p *plan, args []Value) int {
	if !p.spread || len(args) < p.nparams {
		return 0
	}
	return len(args) - p.nparams
}

// Tx runs fn inside a transaction: fn's statements are committed if fn
// returns nil and rolled back otherwise. The engine lock is held throughout,
// so fn must not call Exec (use the passed Tx handle).
func (e *Engine) Tx(fn func(tx *Tx) error) error {
	_, err := e.TxLogged(fn)
	return err
}

// TxLogged is Tx returning, additionally, the commit token of the
// transaction: the log index the commit hook assigned to the transaction's
// WAL entry. The token is 0 when the transaction contained no mutating
// statements or no hook is installed.
func (e *Engine) TxLogged(fn func(tx *Tx) error) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inTx {
		return 0, ErrInTx
	}
	e.inTx = true
	e.undo = e.undo[:0]
	e.pending = nil
	err := fn(&Tx{e: e})
	if err != nil {
		e.rollbackLocked()
		e.inTx = false
		return 0, err
	}
	e.inTx = false
	e.undo = e.undo[:0]
	return e.flushPendingLocked(), nil
}

// LastLogged returns the highest log index the commit hook has assigned so
// far: the engine-local commit high-water mark. It is the conservative token
// for operations that turn out to be no-ops (e.g. a deduplicated re-submit):
// whatever entry the original operation produced is covered by it.
func (e *Engine) LastLogged() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastLogged
}

// Tx is a transaction handle passed to Engine.Tx callbacks.
type Tx struct{ e *Engine }

// Exec executes a statement within the transaction.
func (tx *Tx) Exec(sql string, args ...any) (*Result, error) {
	p, vals, err := tx.e.bind(sql, args)
	if err != nil {
		return nil, err
	}
	tx.e.spreadN = spreadWidth(p, vals)
	return tx.e.execLocked(p, vals, sql)
}

// execLocked executes one parsed statement and, on success, records mutating
// statements for the commit hook (flushed by Exec and Tx at commit points).
// Inside a transaction each statement is atomic: a mid-statement failure
// (e.g. a bad row in a multi-row INSERT) unwinds just that statement's
// effects. Failed statements never reach the commit hook, so without the
// unwind a caller that swallows the error and commits would persist rows
// the statement log never saw — silently diverging replicas.
func (e *Engine) execLocked(p *plan, args []Value, sql string) (*Result, error) {
	stmt := p.stmt
	mark := len(e.undo)
	var t0 time.Time
	if e.slowNanos > 0 {
		t0 = time.Now()
	}
	res, err := e.execStmtLocked(p, args, sql)
	if e.slowNanos > 0 && e.slowFn != nil {
		if d := time.Since(t0); int64(d) >= e.slowNanos {
			e.slowFn(sql, d)
		}
	}
	if err != nil {
		if e.inTx {
			e.rollbackToLocked(mark)
		}
		return res, err
	}
	if (e.hook != nil || e.observer != nil) && !e.applying && isMutating(stmt) {
		e.pending = append(e.pending, Stmt{SQL: sql, Args: args})
	}
	return res, err
}

// isMutating reports whether a parsed statement changes database state and so
// must be recorded in the statement log for replication.
func isMutating(stmt any) bool {
	switch stmt.(type) {
	case createTableStmt, createIndexStmt, dropTableStmt, insertStmt, updateStmt, deleteStmt:
		return true
	}
	return false
}

// flushPendingLocked hands the buffered committed statements to the hook and
// returns the log index the hook assigned (0 when there was nothing to flush
// or no hook). The slice is surrendered to the hook, never reused.
func (e *Engine) flushPendingLocked() uint64 {
	if len(e.pending) == 0 {
		return 0
	}
	stmts := e.pending
	e.pending = nil
	var idx uint64
	if e.hook != nil {
		idx = e.hook(stmts)
		if idx > e.lastLogged {
			e.lastLogged = idx
		}
	}
	if e.observer != nil {
		e.observer(idx, stmts)
	}
	return idx
}

func (e *Engine) execStmtLocked(p *plan, args []Value, sql string) (*Result, error) {
	switch st := p.stmt.(type) {
	case createTableStmt:
		return e.execCreateTable(st)
	case createIndexStmt:
		return e.execCreateIndex(st)
	case dropTableStmt:
		return e.execDropTable(st)
	case insertStmt:
		return e.execInsert(st, args)
	case selectStmt:
		return e.execSelect(p, st, args)
	case updateStmt:
		return e.execUpdate(p, st, args)
	case deleteStmt:
		return e.execDelete(p, st, args)
	case beginStmt:
		if e.inTx {
			return nil, ErrInTx
		}
		e.inTx = true
		e.undo = e.undo[:0]
		e.pending = nil
		return &Result{}, nil
	case commitStmt:
		if !e.inTx {
			return nil, ErrNoTx
		}
		e.inTx = false
		e.undo = e.undo[:0]
		return &Result{}, nil
	case rollbackStmt:
		if !e.inTx {
			return nil, ErrNoTx
		}
		e.rollbackLocked()
		e.inTx = false
		return &Result{}, nil
	}
	return nil, fmt.Errorf("minisql: cannot execute %q", compactSQL(sql))
}

func (e *Engine) rollbackLocked() {
	e.rollbackToLocked(0)
	e.pending = nil
}

// rollbackToLocked unwinds undo entries down to mark (a statement-level
// savepoint), leaving earlier entries in place.
func (e *Engine) rollbackToLocked(mark int) {
	var resort map[*table]bool // tables whose order slice got rows appended
	for i := len(e.undo) - 1; i >= mark; i-- {
		op := e.undo[i]
		t := e.tables[op.table]
		if t == nil {
			continue
		}
		switch op.kind {
		case undoInsert:
			t.delete(op.rowid)
			// Restore the AUTOINCREMENT counter: a rolled-back insert is
			// invisible to the statement log, so replicas replaying the log
			// never bump it — the leader must not either, or task IDs
			// diverge across the cluster.
			t.nextKey = op.nextKey
		case undoDelete:
			if t.insertAt(op.rowid, op.row) {
				if resort == nil {
					resort = make(map[*table]bool)
				}
				resort[t] = true
			}
		case undoUpdate:
			t.update(op.rowid, op.row)
		}
	}
	for t := range resort {
		slices.Sort(t.order)
	}
	e.undo = e.undo[:mark]
}

func (e *Engine) logUndo(op undoOp) {
	if e.inTx {
		e.undo = append(e.undo, op)
	}
}

func (e *Engine) execCreateTable(st createTableStmt) (*Result, error) {
	if _, exists := e.tables[st.Name]; exists {
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("minisql: table %q already exists", st.Name)
	}
	t, err := newTable(st.Name, st.Cols)
	if err != nil {
		return nil, err
	}
	e.tables[st.Name] = t
	e.schemaChangedLocked()
	return &Result{}, nil
}

func (e *Engine) execCreateIndex(st createIndexStmt) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	spec := indexSpec(st.Cols)
	if ix, exists := t.indexes[spec]; exists {
		if st.Ordered && !ix.ordered {
			// Orderedness is a property the statement demands, not a second
			// index: upgrade the existing hash index in place (even under IF
			// NOT EXISTS) instead of refusing.
			if err := t.addIndex(spec, true); err != nil {
				return nil, err
			}
			e.schemaChangedLocked()
			return &Result{}, nil
		}
		if st.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("minisql: index on %s (%s) already exists", st.Table, spec)
	}
	if err := t.addIndex(spec, st.Ordered); err != nil {
		return nil, err
	}
	e.schemaChangedLocked()
	return &Result{}, nil
}

func (e *Engine) execDropTable(st dropTableStmt) (*Result, error) {
	if _, ok := e.tables[st.Name]; !ok {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Name)
	}
	delete(e.tables, st.Name)
	e.schemaChangedLocked()
	return &Result{}, nil
}

func (e *Engine) execInsert(st insertStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	cols := st.Cols
	if len(cols) == 0 {
		cols = make([]string, len(t.cols))
		for i, c := range t.cols {
			cols[i] = c.Name
		}
	}
	colPos := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.colIdx[c]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", c, st.Table)
		}
		colPos[i] = ci
	}
	res := &Result{}
	for _, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("minisql: INSERT into %q has %d values for %d columns",
				st.Table, len(exprRow), len(cols))
		}
		row := make([]Value, len(t.cols))
		for i := range row {
			row[i] = Null()
		}
		prevNextKey := t.nextKey
		ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
		for i, ex := range exprRow {
			v, err := ex.eval(ev)
			if err != nil {
				return nil, err
			}
			row[colPos[i]] = coerce(v, t.cols[colPos[i]].Type)
		}
		if t.autoCol >= 0 && row[t.autoCol].IsNull() {
			row[t.autoCol] = Int64(t.nextKey)
			t.nextKey++
		} else if t.autoCol >= 0 {
			if k := row[t.autoCol].AsInt(); k >= t.nextKey {
				t.nextKey = k + 1
			}
		}
		if t.autoCol >= 0 {
			res.LastInsertID = row[t.autoCol].AsInt()
		}
		id := t.insert(row)
		e.logUndo(undoOp{kind: undoInsert, table: t.name, rowid: id, nextKey: prevNextKey})
		res.RowsAffected++
	}
	return res, nil
}

// matchIDs returns, in ascending rowid order, the rows of a resolved pk/hash
// or scan access that satisfy the WHERE clause. Only a scan visits every
// row; a probe visits exactly the rows its values index, and checks them
// against the rest of the clause only.
func matchIDs(t *table, acc access, where expr, ev *evalCtx) ([]int64, error) {
	candidates := acc.ids(t)
	where = acc.residual(where)
	if where == nil {
		return candidates, nil
	}
	out := candidates[:0:0]
	for _, id := range candidates {
		row, ok := t.rows[id]
		if !ok {
			continue
		}
		ev.row = row
		v, err := where.eval(ev)
		if err != nil {
			return nil, err
		}
		if truthy(v) {
			out = append(out, id)
		}
	}
	return out, nil
}

func flattenAnd(ex expr) []expr {
	b, ok := ex.(*binExpr)
	if !ok || b.Op != "AND" {
		if ex == nil {
			return nil
		}
		return []expr{ex}
	}
	return append(flattenAnd(b.L), flattenAnd(b.R)...)
}

func (e *Engine) execSelect(p *plan, st selectStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
	limit, err := limitOf(&st, ev)
	if err != nil {
		return nil, err
	}
	acc, err := e.pathFor(p, t, st.Where, &st).resolve(ev, limit)
	if err != nil {
		return nil, err
	}
	// An ordered walk reads the index in ORDER BY order and stops at the
	// LIMIT, replacing the match-everything-then-sort pipeline below.
	var ids []int64
	fromIndex := acc.kind == accessOrdered
	if fromIndex {
		ids, err = orderedTopN(t, acc.path, st, ev, limit)
	} else {
		ids, err = matchIDs(t, acc, st.Where, ev)
	}
	if err != nil {
		return nil, err
	}

	// Aggregate query?
	if len(st.Cols) > 0 && st.Cols[0].Agg != "" {
		return e.execAggregate(t, st, ids)
	}

	// Resolve projection.
	var names []string
	var pos []int
	for _, sc := range st.Cols {
		if sc.Star {
			for i, c := range t.cols {
				names = append(names, c.Name)
				pos = append(pos, i)
			}
			continue
		}
		ci, ok := t.colIdx[sc.Name]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", sc.Name, st.Table)
		}
		names = append(names, sc.Name)
		pos = append(pos, ci)
	}

	// ORDER BY and LIMIT — already applied when the ids came off the index.
	if !fromIndex {
		if len(st.OrderBy) > 0 {
			keyPos := make([]int, len(st.OrderBy))
			for i, k := range st.OrderBy {
				ci, ok := t.colIdx[k.Col]
				if !ok {
					return nil, fmt.Errorf("minisql: no column %q in table %q", k.Col, st.Table)
				}
				keyPos[i] = ci
			}
			sort.SliceStable(ids, func(a, b int) bool {
				ra, rb := t.rows[ids[a]], t.rows[ids[b]]
				for i, kp := range keyPos {
					c := ra[kp].Compare(rb[kp])
					if c == 0 {
						continue
					}
					if st.OrderBy[i].Desc {
						return c > 0
					}
					return c < 0
				}
				return false
			})
		}
		if st.Limit != nil && limit < len(ids) {
			ids = ids[:limit]
		}
	}

	// One flat backing array for all result rows: the per-row []Value
	// allocation is the dominant allocator in queue-pop result sets.
	res := &Result{Columns: names, Rows: make([][]Value, len(ids))}
	flat := make([]Value, len(ids)*len(pos))
	for k, id := range ids {
		row := t.rows[id]
		out := flat[k*len(pos) : (k+1)*len(pos) : (k+1)*len(pos)]
		for i, ci := range pos {
			out[i] = row[ci]
		}
		res.Rows[k] = out
	}
	return res, nil
}

// runStart returns the index of the first entry of the equal-first-key run
// ending at i. The slice is sorted ascending by v, so a binary search finds
// the boundary in O(log n); the linear alternative re-walks the entire run
// per pop — O(queue) when every row shares one key, exactly the degeneration
// the composite index exists to avoid.
func runStart(sorted []ordEntry, i int) int {
	v := sorted[i].v
	return sort.Search(i, func(m int) bool { return sorted[m].v.Compare(v) >= 0 })
}

// limitOf evaluates a SELECT's LIMIT, clamped at 0; it is 0 when the
// statement has none.
func limitOf(st *selectStmt, ev *evalCtx) (int, error) {
	if st.Limit == nil {
		return 0, nil
	}
	lv, err := st.Limit.eval(ev)
	if err != nil {
		return 0, err
	}
	return max(int(lv.AsInt()), 0), nil
}

// orderedTopN serves SELECT ... [WHERE ...] ORDER BY k1 [DESC] [, k2 ...]
// LIMIT n by walking the ordered path's index: rows are visited in k1 order
// (runs of equal k1 sub-sorted by the remaining keys) and the walk stops as
// soon as n rows matched the WHERE clause. The trade: a highly selective
// WHERE over a huge table pays a walk proportional to the rows *visited*,
// not matched — which is why resolve hands a selective probe its own path.
// The EMEWS queue pops (filter by work_type, order by priority) match most
// of what they visit, which is exactly the shape this path is for.
func orderedTopN(t *table, ap *accessPath, st selectStmt, ev *evalCtx, n int) (ids []int64, err error) {
	ids = []int64{}
	if n <= 0 {
		return ids, nil
	}
	rest, restPos, stream := st.OrderBy[1:], ap.rest, ap.stream
	sorted := ap.ix.sorted
	desc := st.OrderBy[0].Desc

	if stream {
		// Composite fast path: within each equal-first-key run the sorted side
		// already carries the remaining ORDER BY order (second key ascending,
		// rowid tiebreak matching the fallback's stable sort), so matches
		// append directly and the scan stops the moment n rows matched —
		// bounding the visit by matches needed, not by run length.
		match := func(id int64) (bool, error) {
			if st.Where == nil {
				return true, nil
			}
			ev.row = t.rows[id]
			v, err := st.Where.eval(ev)
			if err != nil {
				return false, err
			}
			return truthy(v), nil
		}
		if desc {
			for i := len(sorted) - 1; i >= 0 && len(ids) < n; {
				j := runStart(sorted, i) - 1
				for _, ent := range sorted[j+1 : i+1] {
					if len(ids) >= n {
						break
					}
					ok, err := match(ent.id)
					if err != nil {
						return nil, err
					}
					if ok {
						ids = append(ids, ent.id)
					}
				}
				i = j
			}
		} else {
			// Ascending on both keys: the slice's global order is the query
			// order.
			for i := 0; i < len(sorted) && len(ids) < n; i++ {
				ok, err := match(sorted[i].id)
				if err != nil {
					return nil, err
				}
				if ok {
					ids = append(ids, sorted[i].id)
				}
			}
		}
		return ids, nil
	}

	var group []int64
	cmpRest := func(a, b int64) int {
		ra, rb := t.rows[a], t.rows[b]
		for i, kp := range restPos {
			c := ra[kp].Compare(rb[kp])
			if c == 0 {
				continue
			}
			if rest[i].Desc {
				return -c
			}
			return c
		}
		return 0
	}
	// flushRun filters one run of equal first-key values (ascending rowid, i.e.
	// deterministic insertion-id order) through the WHERE clause and appends
	// it in remaining-key order; a stable sort keeps full ties in rowid order,
	// matching the fallback path's stable full sort. Queue pops usually find
	// the run already in remaining-key order (task ids ascend with rowids), so
	// an O(len) orderedness pre-pass skips the sort outright.
	flushRun := func(run []ordEntry) error {
		group = group[:0]
		for _, ent := range run {
			if st.Where != nil {
				ev.row = t.rows[ent.id]
				v, err := st.Where.eval(ev)
				if err != nil {
					return err
				}
				if !truthy(v) {
					continue
				}
			}
			group = append(group, ent.id)
		}
		if len(restPos) > 0 && len(group) > 1 {
			inOrder := true
			for k := 1; k < len(group); k++ {
				if cmpRest(group[k-1], group[k]) > 0 {
					inOrder = false
					break
				}
			}
			if !inOrder {
				sort.SliceStable(group, func(a, b int) bool { return cmpRest(group[a], group[b]) < 0 })
			}
		}
		ids = append(ids, group...)
		return nil
	}

	if desc {
		for i := len(sorted) - 1; i >= 0 && len(ids) < n; {
			j := runStart(sorted, i) - 1
			if err := flushRun(sorted[j+1 : i+1]); err != nil {
				return nil, err
			}
			i = j
		}
	} else {
		for i := 0; i < len(sorted) && len(ids) < n; {
			j := i
			for j < len(sorted) && sorted[j].v.Compare(sorted[i].v) == 0 {
				j++
			}
			if err := flushRun(sorted[i:j]); err != nil {
				return nil, err
			}
			i = j
		}
	}
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids, nil
}

func (e *Engine) execAggregate(t *table, st selectStmt, ids []int64) (*Result, error) {
	res := &Result{}
	var out []Value
	for _, sc := range st.Cols {
		if sc.Agg == "" {
			return nil, errors.New("minisql: cannot mix aggregate and plain columns")
		}
		res.Columns = append(res.Columns, aggName(sc))
		switch sc.Agg {
		case "COUNT":
			out = append(out, Int64(int64(len(ids))))
		case "MIN", "MAX", "SUM":
			ci, ok := t.colIdx[sc.Name]
			if !ok {
				return nil, fmt.Errorf("minisql: no column %q in table %q", sc.Name, st.Table)
			}
			out = append(out, aggregate(sc.Agg, t, ids, ci))
		}
	}
	res.Rows = [][]Value{out}
	return res, nil
}

func aggName(sc selectCol) string {
	if sc.Name == "" {
		return "count"
	}
	return sc.Agg + "(" + sc.Name + ")"
}

func aggregate(op string, t *table, ids []int64, ci int) Value {
	var acc Value
	var sumI int64
	var sumF float64
	isFloat := false
	n := 0
	for _, id := range ids {
		v := t.rows[id][ci]
		if v.IsNull() {
			continue
		}
		n++
		switch op {
		case "MIN":
			if acc.IsNull() || v.Compare(acc) < 0 {
				acc = v
			}
		case "MAX":
			if acc.IsNull() || v.Compare(acc) > 0 {
				acc = v
			}
		case "SUM":
			if v.Kind == KindFloat {
				isFloat = true
			}
			sumI += v.AsInt()
			sumF += v.AsFloat()
		}
	}
	if op == "SUM" {
		if n == 0 {
			return Null()
		}
		if isFloat {
			return Float64(sumF)
		}
		return Int64(sumI)
	}
	return acc
}

func (e *Engine) execUpdate(p *plan, st updateStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
	acc, err := e.pathFor(p, t, st.Where, nil).resolve(ev, 0)
	if err != nil {
		return nil, err
	}
	ids, err := matchIDs(t, acc, st.Where, ev)
	if err != nil {
		return nil, err
	}
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		ci, ok := t.colIdx[a.Col]
		if !ok {
			return nil, fmt.Errorf("minisql: no column %q in table %q", a.Col, st.Table)
		}
		setPos[i] = ci
	}
	res := &Result{}
	for _, id := range ids {
		old := t.rows[id]
		row := make([]Value, len(old))
		copy(row, old)
		ev.row = old
		for i, a := range st.Set {
			v, err := a.Val.eval(ev)
			if err != nil {
				return nil, err
			}
			row[setPos[i]] = coerce(v, t.cols[setPos[i]].Type)
		}
		prev := t.update(id, row)
		e.logUndo(undoOp{kind: undoUpdate, table: t.name, rowid: id, row: prev})
		res.RowsAffected++
	}
	return res, nil
}

func (e *Engine) execDelete(p *plan, st deleteStmt, args []Value) (*Result, error) {
	t, ok := e.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, st.Table)
	}
	ev := &evalCtx{tbl: t, args: args, spreadN: e.spreadN}
	acc, err := e.pathFor(p, t, st.Where, nil).resolve(ev, 0)
	if err != nil {
		return nil, err
	}
	ids, err := matchIDs(t, acc, st.Where, ev)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, id := range ids {
		row := t.delete(id)
		if row != nil {
			e.logUndo(undoOp{kind: undoDelete, table: t.name, rowid: id, row: row})
			res.RowsAffected++
		}
	}
	return res, nil
}

func truthy(v Value) bool {
	switch v.Kind {
	case KindNull:
		return false
	case KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	default:
		return v.Text != ""
	}
}

// --- expression evaluation ---

func (c *colRef) eval(ev *evalCtx) (Value, error) {
	ci, ok := ev.tbl.colIdx[c.Name]
	if !ok {
		return Value{}, fmt.Errorf("minisql: no column %q in table %q", c.Name, ev.tbl.name)
	}
	if ev.row == nil {
		return Value{}, fmt.Errorf("minisql: column %q referenced outside row context", c.Name)
	}
	return ev.row[ci], nil
}

func (l *litExpr) eval(*evalCtx) (Value, error) { return l.V, nil }

func (p *paramExpr) eval(ev *evalCtx) (Value, error) {
	idx, err := p.argIndex(ev)
	if err != nil {
		return Value{}, err
	}
	return ev.args[idx], nil
}

// argIndex is the position of the argument the parameter binds to in this
// execution.
func (p *paramExpr) argIndex(ev *evalCtx) (int, error) {
	idx := p.Idx
	if p.AfterSpread {
		// Fixed parameters after an IN (?...) spread shift right by however
		// many arguments the spread absorbed this execution.
		idx += ev.spreadN
	}
	if idx >= len(ev.args) {
		return 0, fmt.Errorf("minisql: statement needs at least %d arguments, got %d",
			idx+1, len(ev.args))
	}
	return idx, nil
}

func (b *binExpr) eval(ev *evalCtx) (Value, error) {
	l, err := b.L.eval(ev)
	if err != nil {
		return Value{}, err
	}
	switch b.Op {
	case "AND":
		if !truthy(l) {
			return Int64(0), nil
		}
		r, err := b.R.eval(ev)
		if err != nil {
			return Value{}, err
		}
		return boolVal(truthy(r)), nil
	case "OR":
		if truthy(l) {
			return Int64(1), nil
		}
		r, err := b.R.eval(ev)
		if err != nil {
			return Value{}, err
		}
		return boolVal(truthy(r)), nil
	}
	r, err := b.R.eval(ev)
	if err != nil {
		return Value{}, err
	}
	// SQL three-valued logic: comparisons with NULL are false.
	if l.IsNull() || r.IsNull() {
		return Int64(0), nil
	}
	c := l.Compare(r)
	switch b.Op {
	case "=":
		return boolVal(c == 0), nil
	case "!=":
		return boolVal(c != 0), nil
	case "<":
		return boolVal(c < 0), nil
	case "<=":
		return boolVal(c <= 0), nil
	case ">":
		return boolVal(c > 0), nil
	case ">=":
		return boolVal(c >= 0), nil
	}
	return Value{}, fmt.Errorf("minisql: unknown operator %q", b.Op)
}

func (in *inExpr) eval(ev *evalCtx) (Value, error) {
	tv, err := in.Target.eval(ev)
	if err != nil {
		return Value{}, err
	}
	if tv.IsNull() {
		return Int64(0), nil
	}
	if in.Spread {
		for _, lv := range in.spreadArgs(ev) {
			if !lv.IsNull() && tv.Compare(lv) == 0 {
				return Int64(1), nil
			}
		}
		return Int64(0), nil
	}
	for _, le := range in.List {
		lv, err := le.eval(ev)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsNull() && tv.Compare(lv) == 0 {
			return Int64(1), nil
		}
	}
	return Int64(0), nil
}

// spreadArgs returns the argument window an IN (?...) list binds to in this
// execution: spreadN arguments starting at the spread's fixed-parameter
// offset.
func (in *inExpr) spreadArgs(ev *evalCtx) []Value {
	lo := in.SpreadStart
	hi := lo + ev.spreadN
	if lo > len(ev.args) || hi > len(ev.args) {
		return nil
	}
	return ev.args[lo:hi]
}

func (is *isNullExpr) eval(ev *evalCtx) (Value, error) {
	tv, err := is.Target.eval(ev)
	if err != nil {
		return Value{}, err
	}
	return boolVal(tv.IsNull() != is.Not), nil
}

func boolVal(b bool) Value {
	if b {
		return Int64(1)
	}
	return Int64(0)
}
