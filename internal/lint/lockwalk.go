package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one mutex the current path has locked. It carries both of
// the lock's identities: the declaration object the order graph is built
// over, and the receiver text and read/write flavour lockheld's messages
// name.
type heldLock struct {
	obj      types.Object // the struct field or variable declaring the mutex
	display  string       // "pkg.Type.field", the order graph's node name
	recv     string       // the operand as written, e.g. "m.mu"
	read     bool         // RLock / RUnlock
	pos      token.Pos    // the call
	deferred bool         // a matching defer Unlock is pending
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
	l.obj, l.display, ok = lockIdent(pass, sel)
	l.recv, l.pos = types.ExprString(sel.X), call.Pos()
	return op, l, ok
}

// lockIdent resolves the mutex operand of a Lock/Unlock selector call to
// the lock's identity object and display name. For "x.mu.Lock()" the
// identity is the mu field's declaration (shared by every instance); for
// a package-level "mu.Lock()" it is the variable; for a promoted
// "s.Lock()" on an embedded mutex it falls back to the receiver's named
// type.
func lockIdent(pass *Pass, sel *ast.SelectorExpr) (types.Object, string, bool) {
	info := pass.Pkg.Info
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[x.Sel]
		if s, ok := info.Selections[x]; ok && s.Obj() != nil {
			obj = s.Obj()
		}
		if obj == nil {
			return nil, "", false
		}
		display := obj.Name()
		if tv, ok := info.Types[x.X]; ok {
			display = namedTypeDisplay(tv.Type) + "." + obj.Name()
		} else if id, _ := ast.Unparen(x.X).(*ast.Ident); id != nil {
			if pn, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				display = pn.Imported().Name() + "." + obj.Name()
			}
		}
		return obj, display, true
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return nil, "", false
		}
		display := obj.Name()
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			display = obj.Pkg().Name() + "." + obj.Name()
		}
		return obj, display, true
	default:
		// Promoted embedded mutex or an expression we cannot key: use the
		// operand type's declaration when it is named.
		if tv, ok := info.Types[sel.X]; ok {
			t := tv.Type
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				return named.Obj(), namedTypeDisplay(tv.Type), true
			}
		}
		return nil, "", false
	}
}

// namedTypeDisplay renders a (possibly pointered) named type as
// "pkg.Type"; other types fall back to their string form.
func namedTypeDisplay(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// lockListener is what an analyzer hangs on the held-lock walk. Each hook
// is told the locks held at that point of the path.
type lockListener interface {
	// acquire: a statement-level Lock or RLock of l is about to join held.
	acquire(l heldLock, held heldLocks)
	// stmt: the path reaches s — for what is judged on a statement as a
	// whole (a send, a return, a go).
	stmt(s ast.Stmt, held heldLocks)
	// expr: the path evaluates e. Function literals inside it run later,
	// on whatever goroutine calls them, and are the listener's to skip.
	expr(e ast.Expr, held heldLocks)
}

// walkLocks runs the one held-lock walk over a function body for l. The
// walk is structural, not a full CFG: the held set is cloned at every
// branch, intersected where branches join, and a branch that terminates
// (returns or branches away) drops out of the join. Every function literal
// in the body is a separate root with nothing held; the statement walk
// never descends into them.
func walkLocks(pass *Pass, body *ast.BlockStmt, l lockListener) {
	w := &lockWalk{pass: pass, l: l}
	w.walkStmts(body.List, nil)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, nil)
		}
		return true
	})
}

type lockWalk struct {
	pass *Pass
	l    lockListener
}

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
	w.l.stmt(s, held)
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, isCall := ast.Unparen(s.X).(*ast.CallExpr)
		if !isCall {
			w.l.expr(s.X, held)
			break
		}
		op, l, ok := lockOp(w.pass, call)
		if !ok {
			w.l.expr(call, held)
			break
		}
		switch op {
		case "Lock", "RLock":
			w.l.acquire(l, held)
			return append(held.without(l), l), false
		case "Unlock", "RUnlock":
			return held.without(l), false
		}
	case *ast.SendStmt:
		w.l.expr(s.Chan, held)
		w.l.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.l.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.l.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.l.expr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.l.expr(s.X, held)
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
			w.l.expr(arg, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.l.expr(e, held)
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
		w.l.expr(s.Cond, held)
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
		w.l.expr(s.Cond, held)
		body, _ := w.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.l.expr(s.X, held)
		w.walkStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.l.expr(s.Tag, held)
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
