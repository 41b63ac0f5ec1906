// GoroLeak flags `go` statements that can park a goroutine forever: the
// spawned function blocks on a channel operation with no reachable escape.
// An escape is any of
//
//   - a select with a default case (non-blocking), or with a case on
//     ctx.Done(), a timer (time.After / Tick / .C), or a channel whose
//     name says shutdown (quit, done, stop, close, ...)
//   - blocking on a channel some non-spawned function closes (a closed
//     channel unblocks receivers)
//   - for sends: a receive on the same channel anywhere outside the
//     spawned function (the result-channel handshake pattern)
//
// The check is intraprocedural over the spawned body: a goroutine that
// delegates its blocking to a callee is not analyzed, trading recall for
// a near-zero false-positive rate on the patterns this codebase uses.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

var GoroLeak = &Analyzer{
	Name:       "goroleak",
	Doc:        "spawned goroutines must not block forever: channel waits need a ctx/quit/close escape",
	RunProgram: runGoroLeak,
}

// escapeName matches channel identifiers that conventionally signal
// shutdown; blocking on one of these is the escape, not the leak.
var escapeName = regexp.MustCompile(`(?i)^(quit|done|stop|exit|shutdown|clos(e|ed|ing)|cancel|term|die|kill)`)

func runGoroLeak(pass *ProgramPass) {
	reported := map[string]bool{} // spawned-function key: one spawn site is enough
	for _, fn := range pass.Prog.Order {
		if fn.testFile {
			continue
		}
		for _, sp := range fn.Summary.Spawns {
			g := sp.Callee
			if g == nil || g.Body() == nil || g.testFile || reported[g.Key] {
				continue
			}
			reported[g.Key] = true
			checkSpawned(pass, g)
		}
	}
}

func checkSpawned(pass *ProgramPass, g *Function) {
	pkg := g.Pkg
	prog := pass.Prog

	// Channel operations that are the communication of a select clause are
	// judged with the whole select, not individually.
	inSelect := map[ast.Node]bool{}
	inspectOwn(g, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				ast.Inspect(comm, func(m ast.Node) bool {
					inSelect[m] = true
					return true
				})
			}
		}
		return true
	})

	inspectOwn(g, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SelectStmt:
			escapes := false
			for _, c := range st.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil { // default case: never blocks
					escapes = true
					break
				}
				if e := commChan(pkg, cc.Comm); e != nil && chanEscapes(prog, pkg, g, e, commIsSend(cc.Comm)) {
					escapes = true
					break
				}
			}
			if !escapes {
				pass.Reportf(g.Pkg, st.Select,
					"goroutine spawned as %s can block forever in select: no default and no ctx/quit/closed-channel case", g.Name())
			}
		case *ast.SendStmt:
			if inSelect[st] {
				return true
			}
			if !chanEscapes(prog, pkg, g, st.Chan, true) {
				pass.Reportf(g.Pkg, st.Arrow,
					"goroutine spawned as %s can block forever sending on %s: nothing outside it receives and no escape path exists", g.Name(), render(st.Chan))
			}
		case *ast.UnaryExpr:
			if st.Op != token.ARROW || inSelect[st] {
				return true
			}
			if !chanEscapes(prog, pkg, g, st.X, false) {
				pass.Reportf(g.Pkg, st.OpPos,
					"goroutine spawned as %s can block forever receiving from %s: the channel is never closed and is not a shutdown signal", g.Name(), render(st.X))
			}
		case *ast.RangeStmt:
			tv, ok := pkg.Info.Types[st.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				return true
			}
			if !chanEscapes(prog, pkg, g, st.X, false) {
				pass.Reportf(g.Pkg, st.For,
					"goroutine spawned as %s ranges over %s which is never closed: the loop can never terminate", g.Name(), render(st.X))
			}
		}
		return true
	})
}

// commChan extracts the channel expression of a select communication.
func commChan(pkg *Package, comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

func commIsSend(comm ast.Stmt) bool {
	_, ok := comm.(*ast.SendStmt)
	return ok
}

// chanEscapes reports whether blocking on e has an escape path.
func chanEscapes(prog *Program, pkg *Package, g *Function, e ast.Expr, send bool) bool {
	e = ast.Unparen(e)
	if isEscapeExpr(pkg, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := identVar(pkg, id); ok && !isPkgLevel(v) && chanIsAlias(prog, pkg, v) {
			// The local is a copy of state read from a field, map or call
			// (`ch := c.replyCh`): its def-site key cannot line up with the
			// closes/recvs of the channel it actually aliases, so any
			// verdict would be a guess. Stay silent.
			return true
		}
	}
	key := chanKey(pkg, e)
	if key == "" {
		// No stable identity (call result, map element): stay silent
		// rather than guess.
		return true
	}
	if len(prog.closes[key]) > 0 {
		// Someone closes it: receivers unblock. For senders a close is a
		// panic, not an escape — but that is unsafesend's finding, and
		// the close at least proves lifecycle management exists.
		return true
	}
	if send {
		for _, r := range prog.recvs[key] {
			if r.Key != g.Key {
				return true
			}
		}
	}
	return false
}

// isEscapeExpr recognizes expressions that are escape hatches by
// construction or by convention: ctx.Done(), timer channels, and
// shutdown-named channels.
func isEscapeExpr(pkg *Package, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Done": // ctx.Done() and anything shaped like it
				return true
			case "After", "Tick", "NewTimer":
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
					return true
				}
			}
		}
	case *ast.SelectorExpr:
		if t := typeOf(pkg, x.X); t != nil && x.Sel.Name == "C" { // t.C on timers/tickers
			if named, ok := deref(t).(*types.Named); ok {
				if o := named.Obj(); o.Pkg() != nil && o.Pkg().Path() == "time" {
					return true
				}
			}
		}
		return escapeName.MatchString(x.Sel.Name)
	case *ast.Ident:
		return escapeName.MatchString(x.Name)
	}
	return false
}

// chanIsAlias reports whether the local channel variable v is ever
// assigned from anything other than a make(chan ...) in its defining
// function. Such a variable is an alias of a channel keyed elsewhere —
// its own definition-site key is meaningless. Parameters (no assignment
// in any body) are NOT aliases: they are the spawned function's contract
// and keep their identity.
func chanIsAlias(prog *Program, pkg *Package, v *types.Var) bool {
	owner := enclosingFunc(prog, pkg, v.Pos())
	if owner == nil {
		return false
	}
	alias := false
	inspectOwn(owner, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj, found := identVar(pkg, id)
				if !found || obj != v {
					continue
				}
				if len(st.Rhs) != len(st.Lhs) || !isMakeChan(pkg, st.Rhs[i]) {
					alias = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				obj, found := identVar(pkg, id)
				if !found || obj != v || len(st.Values) == 0 {
					continue
				}
				if i >= len(st.Values) || !isMakeChan(pkg, st.Values[i]) {
					alias = true
				}
			}
		}
		return true
	})
	return alias
}

func isMakeChan(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// enclosingFunc finds the innermost Program function in pkg whose body
// contains pos, or nil (package-level positions, parameter lists).
func enclosingFunc(prog *Program, pkg *Package, pos token.Pos) *Function {
	var best *Function
	for _, fn := range prog.Order {
		if fn.Pkg != pkg {
			continue
		}
		b := fn.Body()
		if b == nil || pos < b.Pos() || pos > b.End() {
			continue
		}
		if best == nil || b.Pos() > best.Body().Pos() {
			best = fn
		}
	}
	return best
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// render prints a channel expression compactly for messages.
func render(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return "'" + x.Name + "'"
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return "'" + id.Name + "." + x.Sel.Name + "'"
		}
		return "'" + x.Sel.Name + "'"
	}
	return "the channel"
}
