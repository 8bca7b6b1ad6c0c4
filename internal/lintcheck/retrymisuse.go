package lintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runRetrymisuse flags retry and polling loops that cannot be cancelled.
// A loop that sleeps with bare time.Sleep or blocks on <-time.After
// without a cancellation escape keeps goroutines (and their connections)
// alive long after the caller has given up.
//
// Two hazard classes:
//
//  1. time.Sleep anywhere inside a for/range body: the sleep ignores every
//     context. Delays must come from a select over a timer and a
//     cancellation channel (the pattern in service's (*Client).WaitJob).
//  2. <-time.After inside a for/range body with no cancellation case: a
//     bare receive, or a select whose cases include the After receive but
//     no ctx.Done() (or other struct{}-channel) escape. Besides being
//     uncancellable, each iteration leaks the timer until it fires.
//
// A select that also receives from a Done()-style call or any
// struct{}-typed channel counts as cancellable and is not flagged.
// Function literals are skipped — they run on their own goroutine's
// timeline and are visited in their own right.
func runRetrymisuse(u *Unit, p *Package) []Finding {
	const name = "retrymisuse"
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				out = append(out, checkRetryLoop(u, p, n.Body, name)...)
			case *ast.RangeStmt:
				out = append(out, checkRetryLoop(u, p, n.Body, name)...)
			}
			return true
		})
	}
	return out
}

// checkRetryLoop scans one loop body. Nested loops and func literals are
// not descended into: the outer Inspect in runRetrymisuse visits nested
// loops on its own, and a literal's body executes outside this loop.
func checkRetryLoop(u *Unit, p *Package, body *ast.BlockStmt, name string) []Finding {
	var out []Finding
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			cancellable, afterPos := selectRetrySignals(p, n)
			if !cancellable && afterPos.IsValid() {
				out = append(out, u.finding(name, afterPos,
					"select retries on <-time.After with no cancellation case",
					"add a ctx.Done() case so the retry loop can be cancelled"))
			}
			// The comm clauses are judged as a unit above; still scan the
			// case bodies for sleeps and further receives.
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if isTimePkgCall(p, n, "Sleep") {
				out = append(out, u.finding(name, n.Pos(),
					"retry loop sleeps with bare time.Sleep and cannot be cancelled",
					"select on a timer and ctx.Done() instead"))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if call, ok := unparen(n.X).(*ast.CallExpr); ok && isTimePkgCall(p, call, "After") {
					out = append(out, u.finding(name, n.Pos(),
						"retry loop blocks on <-time.After with no cancellation escape",
						"wrap the receive in a select with a ctx.Done() case"))
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// selectRetrySignals classifies one select's comm clauses: cancellable
// reports a receive from a Done()-style call or a struct{}-typed channel,
// afterPos is the position of a <-time.After receive (NoPos if none).
func selectRetrySignals(p *Package, sel *ast.SelectStmt) (cancellable bool, afterPos token.Pos) {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if ok && cc.Comm != nil {
			for _, recv := range commReceives(cc.Comm) {
				if call, isCall := unparen(recv.X).(*ast.CallExpr); isCall && isTimePkgCall(p, call, "After") {
					afterPos = recv.Pos()
					continue
				}
				if isCancellationChan(p, recv.X) {
					cancellable = true
				}
			}
		}
	}
	return cancellable, afterPos
}

// commReceives extracts the receive expressions of one select comm
// statement (`<-ch`, `v := <-ch`, `v, ok = <-ch`).
func commReceives(comm ast.Stmt) []*ast.UnaryExpr {
	var out []*ast.UnaryExpr
	collect := func(e ast.Expr) {
		if ue, ok := unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			out = append(out, ue)
		}
	}
	switch s := comm.(type) {
	case *ast.ExprStmt:
		collect(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			collect(rhs)
		}
	}
	return out
}

// isCancellationChan reports whether the receive operand looks like a
// cancellation signal: a call to a Done()-style method (context.Context,
// or anything shaped like it) or a channel of struct{} (the conventional
// stop/quit channel element type; timer and data channels never are).
func isCancellationChan(p *Package, e ast.Expr) bool {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isTimePkgCall reports whether call invokes the named function from the
// standard time package (resolved through the type checker, so import
// renames are handled).
func isTimePkgCall(p *Package, call *ast.CallExpr, fn string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	f, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "time"
}
