package minisql

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// accessKind names how a statement reaches its candidate rows.
type accessKind uint8

const (
	accessScan    accessKind = iota // visit every live row, in rowid order
	accessPK                        // probe the primary-key index
	accessHash                      // probe a secondary single-column index
	accessOrdered                   // walk an ordered index in ORDER BY order
)

func (k accessKind) String() string {
	switch k {
	case accessPK:
		return "pk"
	case accessHash:
		return "hash"
	case accessOrdered:
		return "ordered"
	default:
		return "scan"
	}
}

// accessPath is a statement's planned access path over one table. The
// planner chooses it once per statement shape (planAccess) and the plan
// cache keeps it with the AST (Engine.pathFor); an execution binds only the
// probe values (resolve). The kind is always explicit: a probe that finds
// nothing yields the empty set, and the only way to visit every row is a
// resolved kind of accessScan, which the table's full-scan counter records.
type accessPath struct {
	kind  accessKind
	table string
	scans *atomic.Uint64 // the table's full-scan counter
	gen   uint64         // schema generation the path was planned against

	// ix is the probed index (pk/hash) or the walked one (ordered), and spec
	// its column list, as Explain prints it.
	ix   *hashIndex
	spec string

	// pk/hash: the probed column's declared type; the source of the probe
	// values — the parameter of `col = ?`, the literal of `col = literal`
	// or the list of `col IN (...)`; and the WHERE clause without the
	// probed conjunct. Every row the probe returns satisfies that conjunct
	// (indexKey), so only the residual is evaluated per row.
	typ      ColType
	param    *paramExpr
	lit      []Value
	in       *inExpr
	residual expr

	// ordered: stream is set when the index is a composite whose second
	// column continues the ORDER BY ascending, so its sorted side carries
	// the whole query order; rest holds the positions of the ORDER BY keys
	// after the first; alt is the pk/hash path over the WHERE clause, taken
	// instead when its probe pins the result to a few rows.
	stream bool
	rest   []int
	alt    *accessPath
}

// pathFor returns the statement's access path over t, planning it on the
// statement's first execution and again after any schema change. The plan
// cache is purged at every schema change too; the generation check covers
// an execution that fetched its plan before a concurrent DDL purged it.
func (e *Engine) pathFor(p *plan, t *table, where expr, sel *selectStmt) *accessPath {
	if ap := p.path; ap != nil && ap.gen == e.schemaGen {
		return ap
	}
	ap := planAccess(t, where, sel)
	for q := ap; q != nil; q = q.alt {
		q.table, q.scans, q.gen = t.name, e.scanCounter(t.name), e.schemaGen
	}
	p.path = ap
	return ap
}

// planAccess chooses the access path of a statement over t: an ordered walk
// when a SELECT's ORDER BY ... LIMIT matches an ordered index (keeping the
// WHERE clause's probe as its alternative), else a probe of the first
// indexable WHERE conjunct, else a scan. sel is nil for UPDATE and DELETE.
func planAccess(t *table, where expr, sel *selectStmt) *accessPath {
	probe := planProbe(t, where)
	if sel != nil {
		if ord := planOrdered(t, sel); ord != nil {
			ord.alt = probe
			return ord
		}
	}
	if probe != nil {
		return probe
	}
	return &accessPath{kind: accessScan}
}

// planProbe returns the pk/hash path for the first top-level conjunct of
// where that a single-column index answers — `col = literal|?` in either
// order, or `col IN (...)` over literals and parameters — or nil when there
// is none.
func planProbe(t *table, where expr) *accessPath {
	conjuncts := flattenAnd(where)
	for i, c := range conjuncts {
		ap := &accessPath{}
		var col string
		switch ex := c.(type) {
		case *binExpr:
			if ex.Op != "=" {
				continue
			}
			var probe expr
			col, probe = eqSides(ex)
			switch pe := probe.(type) {
			case *paramExpr:
				ap.param = pe
			case *litExpr:
				ap.lit = []Value{pe.V}
			}
		case *inExpr:
			cr, ok := ex.Target.(*colRef)
			if !ok || !constList(ex.List) {
				continue
			}
			col, ap.in = cr.Name, ex
		}
		ix := t.indexes[col]
		if ix == nil {
			continue
		}
		cd := t.cols[ix.cols[0]]
		ap.kind = accessHash
		if cd.PrimaryKey {
			ap.kind = accessPK
		}
		ap.ix, ap.spec, ap.typ = ix, col, cd.Type
		for j, r := range conjuncts {
			if j == i {
				continue
			}
			if ap.residual == nil {
				ap.residual = r
			} else {
				ap.residual = &binExpr{Op: "AND", L: ap.residual, R: r}
			}
		}
		return ap
	}
	return nil
}

// constList reports whether every IN-list member is a literal or parameter,
// so the list binds before any row is read.
func constList(list []expr) bool {
	for _, le := range list {
		switch le.(type) {
		case *litExpr, *paramExpr:
		default:
			return false
		}
	}
	return true
}

// eqSides extracts the column and the literal or parameter it is compared
// with from `col = const`, in either order; col is "" for any other shape.
func eqSides(ex *binExpr) (col string, probe expr) {
	try := func(l, r expr) (string, expr) {
		cr, ok := l.(*colRef)
		if !ok {
			return "", nil
		}
		switch r.(type) {
		case *litExpr, *paramExpr:
			return cr.Name, r
		}
		return "", nil
	}
	if col, probe := try(ex.L, ex.R); col != "" {
		return col, probe
	}
	return try(ex.R, ex.L)
}

// planOrdered returns the ordered path for a SELECT ... ORDER BY k1 [DESC]
// [, k2 ...] LIMIT n over an ordered index leading with k1, or nil. Among
// such indexes it prefers a composite whose second column continues the
// ORDER BY ascending — its sorted side carries the full query order, so the
// walk streams matches and stops at n even when every row shares one k1
// value (the uniform-priority queue, where a single-column index degenerates
// into one whole-table run). A composite whose second column does not match
// the query is unusable: its within-run order is not the rowid order the
// scan-and-sort path would produce.
func planOrdered(t *table, st *selectStmt) *accessPath {
	if len(st.OrderBy) == 0 || st.Limit == nil {
		return nil
	}
	if len(st.Cols) > 0 && st.Cols[0].Agg != "" {
		return nil
	}
	var ap, single *accessPath
	for spec, cand := range t.indexes {
		if !cand.ordered || t.cols[cand.cols[0]].Name != st.OrderBy[0].Col {
			continue
		}
		if len(cand.cols) == 1 {
			single = &accessPath{kind: accessOrdered, ix: cand, spec: spec}
			continue
		}
		if len(st.OrderBy) == 2 && t.cols[cand.cols[1]].Name == st.OrderBy[1].Col && !st.OrderBy[1].Desc {
			ap = &accessPath{kind: accessOrdered, ix: cand, spec: spec, stream: true}
		}
	}
	if ap == nil {
		ap = single
	}
	if ap == nil {
		return nil
	}
	for _, k := range st.OrderBy[1:] {
		ci, ok := t.colIdx[k.Col]
		if !ok {
			// The scan-and-sort path reports the unknown column.
			return nil
		}
		ap.rest = append(ap.rest, ci)
	}
	return ap
}

// access is one execution's resolved access path: the kind it takes, the
// planned path it came from (the statement's own, or an ordered path's
// alternative), and for pk/hash the bound probe values.
type access struct {
	kind accessKind
	path *accessPath
	vals []Value
}

// String renders the path as Explain reports it.
func (a access) String() string {
	if a.kind == accessScan {
		return "scan " + a.path.table
	}
	return fmt.Sprintf("%s %s(%s)", a.kind, a.path.table, a.path.spec)
}

// resolve binds one execution's arguments to the planned path. limit is the
// SELECT's LIMIT and matters only to an ordered path, which yields to its
// pk/hash alternative when the alternative's probe pins the result to few
// rows: sorting those few beats walking the ordered index past every row
// that does not match. A pk/hash probe with a value the index cannot answer
// exactly (indexKey) resolves to a scan.
func (ap *accessPath) resolve(ev *evalCtx, limit int) (access, error) {
	switch ap.kind {
	case accessPK, accessHash:
		vals, err := ap.probeValues(ev)
		if err != nil {
			return access{}, err
		}
		for _, v := range vals {
			if _, pk := indexKey(v, ap.typ); pk == probeScan {
				return access{kind: accessScan, path: ap}, nil
			}
		}
		return access{kind: ap.kind, path: ap, vals: vals}, nil
	case accessOrdered:
		if ap.alt != nil && limit > 0 {
			alt, err := ap.alt.resolve(ev, 0)
			if err != nil {
				return access{}, err
			}
			if alt.kind != accessScan && alt.path.ix.count(alt.vals, alt.path.typ) <= 4*limit+16 {
				return alt, nil
			}
		}
	}
	return access{kind: ap.kind, path: ap}, nil
}

// probeValues returns this execution's probe values: a window of the
// arguments for `col = ?` and `col IN (?...)`, the planned literal for
// `col = literal`, and the evaluated members of any other IN list.
func (ap *accessPath) probeValues(ev *evalCtx) ([]Value, error) {
	switch {
	case ap.param != nil:
		i, err := ap.param.argIndex(ev)
		if err != nil {
			return nil, err
		}
		return ev.args[i : i+1], nil
	case ap.in == nil:
		return ap.lit, nil
	case ap.in.Spread:
		return ap.in.spreadArgs(ev), nil
	}
	vals := make([]Value, len(ap.in.List))
	for i, le := range ap.in.List {
		v, err := le.eval(ev)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// probeKind classifies a probe value against the probed column's type.
type probeKind uint8

const (
	probeKey  probeKind = iota // the key indexes exactly the rows `=` matches
	probeNone                  // `=` matches no row
	probeScan                  // no key is exact: the execution scans
)

// indexKey returns the value whose hash key (Value.key) indexes, in a column
// of type typ, exactly the rows equal to v — equal as the WHERE clause
// evaluates `=` and IN, by Value.Compare. Stored values always carry their
// column's type (coerce), so the rules follow Compare's cross-kind cases:
//   - NULL equals nothing.
//   - TEXT: a number compares as its text form, so it probes as that text.
//   - INTEGER: a float compares numerically. Below 2^53 in magnitude every
//     int converts exactly, so an integral float probes as the int it equals
//     and any other float matches nothing; at or beyond 2^53 (and NaN)
//     several ints can compare equal to it, so it scans.
//   - REAL: an int compares as its float64 conversion, so it probes as that
//     float; NaN compares equal to everything, so it scans.
//   - A text probe on a numeric column compares against the column's text
//     form ('5' = 5 but '05' ≠ 5), which no numeric key captures: it scans.
//
// One case stays outside these rules: a NaN stored in a REAL column (text
// 'NaN' coerces to it) compares equal to every probe under a scan, yet is
// indexed only under its own key.
func indexKey(v Value, typ ColType) (Value, probeKind) {
	if v.Kind == KindNull {
		return v, probeNone
	}
	switch typ {
	case TypeText:
		if v.Kind != KindText {
			v = Text(v.AsText())
		}
	case TypeInteger:
		switch v.Kind {
		case KindText:
			return v, probeScan
		case KindFloat:
			if !(math.Abs(v.Float) < 1<<53) {
				return v, probeScan
			}
			if v.Float != math.Trunc(v.Float) {
				return v, probeNone
			}
			v = Int64(int64(v.Float))
		}
	case TypeReal:
		switch v.Kind {
		case KindText:
			return v, probeScan
		case KindInt:
			v = Float64(float64(v.Int))
		case KindFloat:
			if math.IsNaN(v.Float) {
				return v, probeScan
			}
		}
	}
	return v, probeKey
}

// ids returns the candidate rowids of a resolved pk/hash or scan access, in
// ascending rowid order: for a probe exactly the rows its values index (the
// empty set when none is present), for a scan every live row, counted.
func (a access) ids(t *table) []int64 {
	if a.kind == accessScan {
		a.path.scans.Add(1)
		return t.scanIDs()
	}
	return a.path.ix.lookup(a.vals, a.path.typ)
}

// residual is the part of the WHERE clause a row from this access must
// still be checked against: all of it after a scan, all but the probed
// conjunct after a probe.
func (a access) residual(where expr) expr {
	if a.kind == accessScan {
		return where
	}
	return a.path.residual
}

// set returns the rowids indexed under probe value v of a column of type
// typ; nil when v matches no row.
func (ix *hashIndex) set(v Value, typ ColType) map[int64]struct{} {
	kv, pk := indexKey(v, typ)
	if pk != probeKey {
		return nil
	}
	var buf [32]byte
	return ix.m[string(kv.appendKey(buf[:0]))]
}

// lookup returns the rowids indexed under the probe values, ascending and
// without duplicates: empty, never nil, when no value is present.
func (ix *hashIndex) lookup(vals []Value, typ ColType) []int64 {
	ids := []int64{}
	for _, v := range vals {
		for id := range ix.set(v, typ) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// count returns how many rowids the probe values index (a repeated value
// counts twice), without materializing them.
func (ix *hashIndex) count(vals []Value, typ ColType) int {
	n := 0
	for _, v := range vals {
		n += len(ix.set(v, typ))
	}
	return n
}

// scanCounter returns the full-scan counter of the named table, creating it
// on first use. Counters outlive their tables (DROP, Restore), so the
// exported totals stay monotonic. Called with e.mu held.
func (e *Engine) scanCounter(table string) *atomic.Uint64 {
	c := e.scans[table]
	if c == nil {
		c = new(atomic.Uint64)
		e.scans[table] = c
	}
	return c
}

// FullScans returns, per table, how many statement executions visited every
// row of it — access path "scan" — since the engine was created (the
// osprey_minisql_full_scans_total metric). Every current table is listed,
// zero when never scanned. It takes the engine lock, so it is for scrapes,
// not hot paths.
func (e *Engine) FullScans() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name := range e.tables {
		e.scanCounter(name)
	}
	out := make(map[string]uint64, len(e.scans))
	for name, c := range e.scans {
		out[name] = c.Load()
	}
	return out
}

// Explain reports the access path a SELECT, UPDATE or DELETE takes with the
// given arguments, without executing it: "pk eq_out_q(task_id)",
// "hash eq_tasks(dedup_key)", "ordered eq_out_q(priority,task_id)" or
// "scan eq_in_q". The path is the one planned and cached for the statement;
// the arguments decide only what each execution decides — whether the probe
// values have exact keys (else a scan), and whether an ordered walk yields
// to a selective probe.
func (e *Engine) Explain(sql string, args ...any) (string, error) {
	p, vals, err := e.bind(sql, args)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var (
		name  string
		where expr
		sel   *selectStmt
	)
	switch st := p.stmt.(type) {
	case selectStmt:
		name, where, sel = st.Table, st.Where, &st
	case updateStmt:
		name, where = st.Table, st.Where
	case deleteStmt:
		name, where = st.Table, st.Where
	default:
		return "", fmt.Errorf("minisql: no access path for %q", compactSQL(sql))
	}
	t, ok := e.tables[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	ev := &evalCtx{tbl: t, args: vals, spreadN: spreadWidth(p, vals)}
	limit := 0
	if sel != nil {
		if limit, err = limitOf(sel, ev); err != nil {
			return "", err
		}
	}
	acc, err := e.pathFor(p, t, where, sel).resolve(ev, limit)
	if err != nil {
		return "", err
	}
	return acc.String(), nil
}
