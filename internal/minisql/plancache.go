package minisql

import (
	"container/list"
	"strings"
	"sync"
)

// planCacheSize bounds the number of parsed statements kept per engine. The
// EMEWS hot paths cycle through a few dozen distinct statement texts (the
// IN-clause variants of the batched pops add one text per batch width), so
// 512 leaves generous headroom while keeping a pathological ad-hoc workload
// from holding every statement it ever saw.
const planCacheSize = 512

// plan is one cached parse result: the immutable statement AST, its fixed
// positional-parameter count, whether it contains a spread IN (?...) list,
// and the statement's access path (access.go). The AST is shared by every
// execution of the same SQL text — execution never mutates it (column
// binding happens at exec time against the live table, spread widths bind
// per execution), which is what makes the share safe. The access path is
// planned on first execution and read and written only under the engine
// lock; it is stamped with the schema generation it was planned against.
type plan struct {
	stmt    any
	nparams int
	spread  bool
	path    *accessPath
}

// planCache is an LRU of parsed statements keyed by exact SQL text. It has
// its own lock so Exec callers can hit the cache before taking the engine
// lock; the engine only calls purge (DDL, Restore) while holding its lock,
// and the lock order engine→cache is never reversed.
type planCache struct {
	mu  sync.Mutex
	ent map[string]*list.Element
	lru *list.List // front = most recently used; values are *planNode

	cacheCounters // hit/miss/eviction telemetry (obs.go), atomics
}

type planNode struct {
	sql string
	p   *plan
}

func newPlanCache() *planCache {
	return &planCache{ent: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached plan for sql, if any.
func (c *planCache) get(sql string) (*plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[sql]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planNode).p, true
}

// put stores a parse result, evicting the least recently used entry at
// capacity.
func (c *planCache) put(sql string, p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[sql]; ok {
		el.Value.(*planNode).p = p
		c.lru.MoveToFront(el)
		return
	}
	c.ent[sql] = c.lru.PushFront(&planNode{sql: sql, p: p})
	if c.lru.Len() > planCacheSize {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.ent, last.Value.(*planNode).sql)
		c.evictions.Add(1)
	}
}

// purge evicts everything. Called on DDL (CREATE/DROP TABLE, CREATE INDEX)
// and snapshot Restore: parsed ASTs are schema-independent, but a plan's
// access path names the indexes of the schema it was planned against, so
// the cache is invalidated wholesale at every schema boundary.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ent = make(map[string]*list.Element)
	c.lru.Init()
}

// len reports the number of cached plans (tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cachedParse is parse through the engine's plan cache: each distinct SQL
// text is lexed and parsed once and the immutable AST reused, which removes
// the parser from every hot path (submit, pop, report re-execute the same
// handful of statements forever). A cache hit on the raw text costs nothing
// beyond the lookup; on a miss the text is normalized — an explicit
// all-parameter IN list collapses to the spread form — and the raw text is
// stored as an alias of the normalized plan, so a caller that renders
// `IN (?, ?, ?)` per batch width parses once per statement shape and every
// width shares the same immutable AST.
func (e *Engine) cachedParse(sql string) (*plan, error) {
	if p, ok := e.plans.get(sql); ok {
		e.plans.hits.Add(1)
		return p, nil
	}
	norm := normalizeIN(sql)
	if norm != sql {
		if p, ok := e.plans.get(norm); ok {
			e.plans.put(sql, p) // alias: future raw-text hits skip the scan
			e.plans.hits.Add(1)
			return p, nil
		}
	}
	e.plans.misses.Add(1)
	stmt, nparams, spread, err := parse(norm)
	if err != nil {
		return nil, err
	}
	p := &plan{stmt: stmt, nparams: nparams, spread: spread}
	e.plans.put(norm, p)
	if norm != sql {
		e.plans.put(sql, p)
	}
	return p, nil
}

// normalizeIN rewrites the FIRST parenthesized all-parameter IN list —
// `IN (?, ?, ?)` of any width — to the width-oblivious spread form
// `IN (?...)`. Only the first is rewritten because a statement supports at
// most one spread (a second variable-width list would make the widths
// ambiguous); later all-parameter lists keep their explicit form and stay
// valid. Lists containing anything but `?` placeholders are left untouched,
// as is everything inside string literals. The rewrite is deterministic and
// idempotent, so leaders and followers replaying the same WAL statement
// text reach the same plan.
func normalizeIN(sql string) string {
	// A statement that already contains a spread anywhere keeps its explicit
	// lists: the parser allows one spread per statement, so rewriting a
	// fixed list next to an existing `?...` would break a valid statement.
	// (The substring test can also hit inside a string literal; skipping
	// normalization is always safe — the statement just keeps its
	// width-specific cache entry.)
	if strings.Contains(sql, "?...") {
		return sql
	}
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c == '\'' {
			// Skip the string literal (doubled quotes escape).
			i++
			for i < len(sql) {
				if sql[i] == '\'' {
					if i+1 < len(sql) && sql[i+1] == '\'' {
						i += 2
						continue
					}
					break
				}
				i++
			}
			i++
			continue
		}
		if (c == 'I' || c == 'i') && i+1 < len(sql) && (sql[i+1] == 'N' || sql[i+1] == 'n') &&
			(i == 0 || !isIdentPart(sql[i-1])) && (i+2 >= len(sql) || !isIdentPart(sql[i+2])) {
			j := i + 2
			for j < len(sql) && isSpace(sql[j]) {
				j++
			}
			if j < len(sql) && sql[j] == '(' {
				k, params := j+1, 0
				for ; k < len(sql); k++ {
					ch := sql[k]
					if ch == '?' {
						params++
						continue
					}
					if ch == ',' || isSpace(ch) {
						continue
					}
					break
				}
				if params > 0 && k < len(sql) && sql[k] == ')' {
					return sql[:i] + "IN (?...)" + sql[k+1:]
				}
			}
		}
		i++
	}
	return sql
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
