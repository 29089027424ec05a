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
//
// It is a listener on the held-lock walk (walkLocks), which it shares with
// lockorder.
func LockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "no blocking operation or lock-leaking return between mutex Lock and Unlock",
	}
	a.Run = func(pass *Pass) {
		for _, fd := range funcDecls(pass.Pkg) {
			if fd.Body != nil {
				walkLocks(pass, fd.Body, lockheldListener{pass})
			}
		}
	}
	return a
}

// lockheldListener flags what must not happen under a lock.
type lockheldListener struct{ pass *Pass }

func (c lockheldListener) acquire(heldLock, heldLocks) {}

func (c lockheldListener) stmt(s ast.Stmt, held heldLocks) {
	if len(held) == 0 {
		return
	}
	first := held[0].text()
	switch s := s.(type) {
	case *ast.SendStmt:
		c.pass.Reportf(s.Pos(), "channel send while holding %s", first)
	case *ast.RangeStmt:
		if tv, ok := c.pass.Pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.pass.Reportf(s.Pos(), "range over channel while holding %s", first)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				return // a default clause: the non-blocking form
			}
		}
		c.pass.Reportf(s.Pos(), "select without default while holding %s blocks under the lock", first)
	case *ast.ReturnStmt:
		for _, h := range held {
			if !h.deferred {
				c.pass.Reportf(s.Pos(), "return while holding %s: unlock on this path or 'defer %s.Unlock()' right after Lock", h.text(), h.text())
			}
		}
	}
}

// expr flags channel receives and blocking calls — time.Sleep or
// sync.WaitGroup.Wait; sync.Cond.Wait is deliberately not here — inside an
// expression evaluated under a lock. Selects never appear inside
// expressions.
func (c lockheldListener) expr(e ast.Expr, held heldLocks) {
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
				c.pass.Reportf(n.Pos(), "channel receive while holding %s", first)
			}
		case *ast.CallExpr:
			fn := callee(c.pass, n)
			if isFuncNamed(fn, "time", "Sleep") {
				c.pass.Reportf(n.Pos(), "call to time.Sleep while holding %s", first)
			} else if fn != nil {
				if rpkg, rname, ok := recvTypeName(fn); ok && rpkg == "sync" && rname == "WaitGroup" && fn.Name() == "Wait" {
					c.pass.Reportf(n.Pos(), "call to sync.WaitGroup.Wait while holding %s", first)
				}
			}
		}
		return true
	})
}
