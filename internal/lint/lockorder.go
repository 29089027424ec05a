package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-order analyzer: the
// inter-procedural deadlock check. The per-package Run pass walks every
// function in dependency order and records a summary per function in the
// analyzer's own map — which locks it acquires, which it acquires while
// already holding another, and which callees it invokes under a lock. The
// Finish pass then stitches the summaries into one lock-order graph over
// the whole module (an edge A → B means "B was acquired while A was held",
// with acquisitions resolved through direct static callees, any call
// depth), reports every cycle as a potential deadlock, naming each edge's
// acquisition chain so both sides of an inversion are visible in one
// message, and clears the map.
//
// Locks are identified by their declaration — the struct field or package
// variable — so the analysis is instance-insensitive: two locks of the
// same field on different values collapse to one node. Self-edges are
// therefore not reported (they are usually different instances), and
// function literals are separate analysis roots with no held locks, the
// same under-approximation lockheld makes — both are listeners on the one
// held-lock walk (walkLocks).
//
// A callee's *types.Func is the same object whichever package the call site
// is in: the module loader type-checks every package against the same
// imported package instances, so the summaries key on it directly.
func LockOrder() *Analyzer {
	byFn := map[*types.Func]*lockFuncFacts{}
	return &Analyzer{
		Name: "lockorder",
		Doc:  "no cycles in the module-wide lock acquisition order (potential deadlock)",
		Run: func(pass *Pass) {
			for _, fd := range funcDecls(pass.Pkg) {
				if fd.Body == nil {
					continue
				}
				fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				facts := &lockFuncFacts{name: shortFuncName(fn)}
				walkLocks(pass, fd.Body, &orderListener{pass: pass, facts: facts})
				if len(facts.acquires) > 0 || len(facts.calls) > 0 {
					byFn[fn] = facts
				}
			}
		},
		Finish: func(mp *ModulePass) {
			finishLockOrder(mp, byFn)
			clear(byFn)
		},
	}
}

// lockEdge is a direct within-function ordering: to was acquired at pos
// while from was held.
type lockEdge struct {
	from, to heldLock
	pos      token.Pos
}

// lockCall is a call to a statically-resolved function, with the locks
// held at the call site (possibly none — the call graph also feeds the
// transitive acquire sets).
type lockCall struct {
	fn   *types.Func
	held heldLocks
	pos  token.Pos
}

// lockFuncFacts is the per-function summary.
type lockFuncFacts struct {
	name     string
	acquires []heldLock
	edges    []lockEdge
	calls    []lockCall
}

// orderListener collects one function's facts from the held-lock walk.
type orderListener struct {
	pass  *Pass
	facts *lockFuncFacts
}

// acquire notes an acquisition: its own fact, plus a direct edge from
// every currently held lock.
func (o *orderListener) acquire(l heldLock, held heldLocks) {
	o.facts.acquires = append(o.facts.acquires, l)
	for _, h := range held {
		if h.obj != l.obj {
			o.facts.edges = append(o.facts.edges, lockEdge{from: h, to: l, pos: l.pos})
		}
	}
}

func (o *orderListener) stmt(s ast.Stmt, held heldLocks) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// Deferred calls run with whatever is held at the function's end;
		// approximate with the current held set.
		o.expr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine runs with its own empty held set; its closure (if
		// a literal) is walked as a separate root. A named callee still
		// enters the call graph, with no held locks.
		if fn := callee(o.pass, s.Call); fn != nil {
			o.facts.calls = append(o.facts.calls, lockCall{fn: fn, pos: s.Call.Pos()})
		}
	}
}

// expr records lock-relevant calls inside an arbitrary expression:
// acquisitions (rare inside an expression; they order after the held locks
// but do not join the held set) and resolvable callees with the current
// held set. Function literals are separate roots and skipped here.
func (o *orderListener) expr(e ast.Expr, held heldLocks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, l, ok := lockOp(o.pass, n); ok {
				if op == "Lock" || op == "RLock" {
					o.acquire(l, held)
				}
			} else if fn := callee(o.pass, n); fn != nil {
				o.facts.calls = append(o.facts.calls, lockCall{fn: fn, held: held.clone(), pos: n.Pos()})
			}
		}
		return true
	})
}

// shortFuncName renders fn as "pkg.Name" or "(*pkg.Type).Name".
func shortFuncName(fn *types.Func) string {
	if rpkg, rname, ok := recvTypeName(fn); ok {
		base := rname
		if i := strings.LastIndex(rpkg, "/"); i >= 0 {
			rpkg = rpkg[i+1:]
		}
		return "(*" + rpkg + "." + base + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// orderEdge is one aggregated lock-order graph edge with a representative
// acquisition site and the call chain that reaches it.
type orderEdge struct {
	from, to types.Object
	pos      token.Pos
	posn     token.Position
	chain    string // e.g. "in (*service.Server).Submit" or "via (*cluster.Router).route → (*cluster.Membership).Snapshot"
}

// finishLockOrder assembles the module lock-order graph from the
// per-function summaries and reports each acquisition cycle once.
func finishLockOrder(mp *ModulePass, byFn map[*types.Func]*lockFuncFacts) {
	// Transitive acquire sets: every lock a function may take, directly
	// or through any chain of statically resolved callees, with one
	// representative chain + site per lock.
	type acq struct {
		site  heldLock
		chain []string // function names from the entry function down to the acquirer
	}
	memo := map[*types.Func]map[types.Object]acq{}
	onStack := map[*types.Func]bool{}
	var transAcq func(fn *types.Func) map[types.Object]acq
	transAcq = func(fn *types.Func) map[types.Object]acq {
		if m, ok := memo[fn]; ok {
			return m
		}
		if onStack[fn] {
			return nil // recursion: the cycle's other pass covers it
		}
		facts := byFn[fn]
		if facts == nil {
			return nil
		}
		onStack[fn] = true
		out := map[types.Object]acq{}
		for _, s := range facts.acquires {
			if _, ok := out[s.obj]; !ok {
				out[s.obj] = acq{site: s, chain: []string{facts.name}}
			}
		}
		for _, c := range facts.calls {
			for obj, sub := range transAcq(c.fn) {
				if _, ok := out[obj]; !ok {
					out[obj] = acq{site: sub.site, chain: append([]string{facts.name}, sub.chain...)}
				}
			}
		}
		onStack[fn] = false
		memo[fn] = out
		return out
	}

	// Build the edge set: direct within-function edges plus call edges —
	// anything a callee (transitively) acquires orders after every lock
	// held at the call site.
	display := map[types.Object]string{}
	note := func(s heldLock) {
		if d, ok := display[s.obj]; !ok || s.display < d {
			display[s.obj] = s.display
		}
	}
	edges := map[types.Object]map[types.Object]orderEdge{}
	addEdge := func(e orderEdge) {
		m := edges[e.from]
		if m == nil {
			m = map[types.Object]orderEdge{}
			edges[e.from] = m
		}
		old, ok := m[e.to]
		if !ok || posLess(e.posn, old.posn) {
			m[e.to] = e
		}
	}
	for _, facts := range byFn {
		for _, e := range facts.edges {
			note(e.from)
			note(e.to)
			addEdge(orderEdge{
				from: e.from.obj, to: e.to.obj,
				pos: e.pos, posn: mp.Position(e.pos),
				chain: "in " + facts.name,
			})
		}
		for _, c := range facts.calls {
			if len(c.held) == 0 {
				continue
			}
			for obj, sub := range transAcq(c.fn) {
				for _, h := range c.held {
					if h.obj == obj {
						continue
					}
					note(h)
					note(sub.site)
					addEdge(orderEdge{
						from: h.obj, to: obj,
						pos: c.pos, posn: mp.Position(c.pos),
						chain: "via " + strings.Join(append([]string{facts.name}, sub.chain...), " → "),
					})
				}
			}
		}
	}

	reportLockCycles(mp, edges, display)
}

// posLess orders source positions.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// reportLockCycles enumerates the simple cycles of the lock-order graph
// (bounded length — lock graphs are tiny) and reports each once, at the
// first edge of its canonical rotation, with every edge's acquisition
// site and chain in the message.
func reportLockCycles(mp *ModulePass, edges map[types.Object]map[types.Object]orderEdge, display map[types.Object]string) {
	nodes := make([]types.Object, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return display[nodes[i]] < display[nodes[j]] })

	const maxCycleLen = 6
	seen := map[string]bool{}
	var path []types.Object
	onPath := map[types.Object]bool{}

	var report func(cycle []types.Object)
	report = func(cycle []types.Object) {
		// Canonical rotation: start at the smallest display name.
		start := 0
		for i := range cycle {
			if display[cycle[i]] < display[cycle[start]] {
				start = i
			}
		}
		rot := append(append([]types.Object(nil), cycle[start:]...), cycle[:start]...)
		key := ""
		for _, n := range rot {
			key += display[n] + "→"
		}
		if seen[key] {
			return
		}
		seen[key] = true

		names := make([]string, 0, len(rot)+1)
		for _, n := range rot {
			names = append(names, display[n])
		}
		names = append(names, display[rot[0]])
		var parts []string
		for i := range rot {
			from, to := rot[i], rot[(i+1)%len(rot)]
			e := edges[from][to]
			parts = append(parts, fmt.Sprintf("%s acquired while holding %s at %s:%d (%s)",
				display[to], display[from], filepath.Base(e.posn.Filename), e.posn.Line, e.chain))
		}
		first := edges[rot[0]][rot[1%len(rot)]]
		mp.Reportf(first.pos, "potential deadlock: lock-order cycle %s: %s",
			strings.Join(names, " → "), strings.Join(parts, "; "))
	}

	var dfs func(start, cur types.Object)
	dfs = func(start, cur types.Object) {
		if len(path) > maxCycleLen {
			return
		}
		for _, nxt := range sortedTargets(edges[cur], display) {
			if nxt == start {
				report(append([]types.Object(nil), path...))
				continue
			}
			// Only visit nodes ordered after start so each cycle is found
			// from its smallest node exactly once.
			if onPath[nxt] || display[nxt] < display[start] {
				continue
			}
			onPath[nxt] = true
			path = append(path, nxt)
			dfs(start, nxt)
			path = path[:len(path)-1]
			delete(onPath, nxt)
		}
	}
	for _, n := range nodes {
		path = append(path[:0], n)
		onPath = map[types.Object]bool{n: true}
		dfs(n, n)
	}
}

// sortedTargets returns m's keys in display-name order for deterministic
// traversal.
func sortedTargets(m map[types.Object]orderEdge, display map[types.Object]string) []types.Object {
	out := make([]types.Object, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return display[out[i]] < display[out[j]] })
	return out
}
