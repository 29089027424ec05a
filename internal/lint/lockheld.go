package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld builds the analyzer guarding the repo's mutex discipline: no
// blocking operation — channel send or receive outside a select with a
// default, a default-less select itself, a range over a channel,
// time.Sleep, or sync.WaitGroup.Wait — may run between a mutex Lock and
// its Unlock, and no path may return while the mutex is still held
// without a deferred Unlock. sync.Cond.Wait is exempt (it releases the
// mutex while parked; looping on it under the lock is the correct idiom),
// and a send inside a select that has a default clause is exempt (that is
// the non-blocking publish pattern).
func LockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "no blocking operation or lock-leaking return between mutex Lock and Unlock",
	}
	a.Run = func(pass *Pass) {
		for _, fd := range funcDecls(pass.Pkg) {
			if fd.Body != nil {
				walkLocks(pass, fd.Body)
			}
		}
	}
	return a
}

// heldLock is one mutex the current path has locked, named by its receiver
// text and read/write flavour.
type heldLock struct {
	recv     string // the operand as written, e.g. "m.mu"
	read     bool   // RLock / RUnlock
	deferred bool   // a matching defer Unlock is pending
}

// text names the lock the way the source does: "m.mu" or "m.mu (RLock)".
func (l heldLock) text() string {
	if l.read {
		return l.recv + " (RLock)"
	}
	return l.recv
}

// same reports whether o is the same operand locked the same way — what
// pairs an Unlock with its Lock.
func (l heldLock) same(o heldLock) bool { return l.recv == o.recv && l.read == o.read }

// heldLocks is the locks held along one structural path, oldest first.
type heldLocks []heldLock

func (h heldLocks) clone() heldLocks { return append(heldLocks(nil), h...) }

// without returns a copy of h minus l.
func (h heldLocks) without(l heldLock) heldLocks {
	var out heldLocks
	for _, x := range h {
		if !x.same(l) {
			out = append(out, x)
		}
	}
	return out
}

// intersect keeps the locks held on both paths, in h's order — the walk
// under-approximates at joins, so a branch that unlocks and returns (the
// manual early-exit idiom) never taints the fallthrough path.
func (h heldLocks) intersect(o heldLocks) heldLocks {
	var out heldLocks
	for _, x := range h {
		for _, y := range o {
			if x.same(y) {
				x.deferred = x.deferred || y.deferred
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// lockOp classifies call as a sync.Mutex or sync.RWMutex method — Lock,
// Unlock, RLock, RUnlock, TryLock or TryRLock — and identifies its operand.
func lockOp(pass *Pass, call *ast.CallExpr) (op string, l heldLock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", heldLock{}, false
	}
	fn, _ := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", heldLock{}, false
	}
	rpkg, rname, hasRecv := recvTypeName(fn)
	if !hasRecv || rpkg != "sync" || (rname != "Mutex" && rname != "RWMutex") {
		return "", heldLock{}, false
	}
	op = fn.Name()
	switch op {
	case "Lock", "Unlock", "TryLock":
	case "RLock", "RUnlock", "TryRLock":
		l.read = true
	default:
		return "", heldLock{}, false
	}
	l.recv = types.ExprString(sel.X)
	return op, l, true
}

// walkLocks walks a function body with the set of locks held. The walk is
// structural, not a full CFG: the held set is cloned at every branch,
// intersected where branches join, and a branch that terminates (returns
// or branches away) drops out of the join. Every function literal in the
// body is a separate root with nothing held; the statement walk never
// descends into them.
func walkLocks(pass *Pass, body *ast.BlockStmt) {
	w := &lockWalk{pass: pass}
	w.walkStmts(body.List, nil)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, nil)
		}
		return true
	})
}

type lockWalk struct{ pass *Pass }

// walkStmts walks a statement list, threading the held set; it returns the
// final set and whether every way through the list terminates.
func (w *lockWalk) walkStmts(list []ast.Stmt, held heldLocks) (heldLocks, bool) {
	for _, s := range list {
		var term bool
		if held, term = w.walkStmt(s, held); term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalk) walkStmt(s ast.Stmt, held heldLocks) (heldLocks, bool) {
	w.stmt(s, held)
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, isCall := ast.Unparen(s.X).(*ast.CallExpr)
		if !isCall {
			w.expr(s.X, held)
			break
		}
		op, l, ok := lockOp(w.pass, call)
		if !ok {
			w.expr(call, held)
			break
		}
		switch op {
		case "Lock", "RLock":
			return append(held.without(l), l), false
		case "Unlock", "RUnlock":
			return held.without(l), false
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the function's end —
		// what the held set already models — and excuses returns under it.
		if op, l, ok := lockOp(w.pass, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			for i := range held {
				if held[i].same(l) {
					held[i].deferred = true
				}
			}
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.expr(arg, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true // break/continue/goto: ends this structural path
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		bodyHeld, bodyTerm := w.walkStmts(s.Body.List, held.clone())
		elseHeld, elseTerm := held.clone(), false
		if s.Else != nil {
			elseHeld, elseTerm = w.walkStmt(s.Else, elseHeld)
		}
		switch {
		case bodyTerm && elseTerm:
			return held, true
		case bodyTerm:
			return elseHeld, false
		case elseTerm:
			return bodyHeld, false
		default:
			return bodyHeld.intersect(elseHeld), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		body, _ := w.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.walkStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.expr(s.Tag, held)
		w.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, held)
	}
	return held, false
}

// walkClauses walks each case or comm clause body of a switch or select on
// its own clone of held.
func (w *lockWalk) walkClauses(body *ast.BlockStmt, held heldLocks) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.walkStmts(c.Body, held.clone())
		case *ast.CommClause:
			w.walkStmts(c.Body, held.clone())
		}
	}
}

// stmt flags what is judged on a statement as a whole under a lock: a
// send, a range over a channel, a default-less select, a return that
// leaks the lock.
func (w *lockWalk) stmt(s ast.Stmt, held heldLocks) {
	if len(held) == 0 {
		return
	}
	first := held[0].text()
	switch s := s.(type) {
	case *ast.SendStmt:
		w.pass.Reportf(s.Pos(), "channel send while holding %s", first)
	case *ast.RangeStmt:
		if tv, ok := w.pass.Pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.pass.Reportf(s.Pos(), "range over channel while holding %s", first)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				return // a default clause: the non-blocking form
			}
		}
		w.pass.Reportf(s.Pos(), "select without default while holding %s blocks under the lock", first)
	case *ast.ReturnStmt:
		for _, h := range held {
			if !h.deferred {
				w.pass.Reportf(s.Pos(), "return while holding %s: unlock on this path or 'defer %s.Unlock()' right after Lock", h.text(), h.text())
			}
		}
	}
}

// expr flags channel receives and blocking calls — time.Sleep or
// sync.WaitGroup.Wait; sync.Cond.Wait is deliberately not here — inside an
// expression evaluated under a lock. Selects never appear inside
// expressions, and function literals run later, on whatever goroutine
// calls them, so they are skipped.
func (w *lockWalk) expr(e ast.Expr, held heldLocks) {
	if e == nil || len(held) == 0 {
		return
	}
	first := held[0].text()
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.pass.Reportf(n.Pos(), "channel receive while holding %s", first)
			}
		case *ast.CallExpr:
			fn := callee(w.pass, n)
			if isFuncNamed(fn, "time", "Sleep") {
				w.pass.Reportf(n.Pos(), "call to time.Sleep while holding %s", first)
			} else if fn != nil {
				if rpkg, rname, ok := recvTypeName(fn); ok && rpkg == "sync" && rname == "WaitGroup" && fn.Name() == "Wait" {
					w.pass.Reportf(n.Pos(), "call to sync.WaitGroup.Wait while holding %s", first)
				}
			}
		}
		return true
	})
}
