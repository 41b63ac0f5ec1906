// LockOrder builds the inter-procedural mutex acquisition graph: an edge
// A -> B means some goroutine acquires B while holding A, either directly
// or through a chain of calls (callee acquisitions come from the
// transitive effect summaries; `go`-spawned callees are excluded because
// they run on their own goroutine). A cycle in that graph is a potential
// deadlock: two goroutines entering the cycle from different points block
// each other forever. One finding is reported per cycle, at the earliest
// witnessing acquisition.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "mutex acquisition order must be globally consistent (the inter-procedural lock graph stays acyclic)",
	RunProgram: runLockOrder,
}

// lockEdge is one witnessed held -> acquired pair.
type lockEdge struct {
	from, to string
	fn       *Function
	pos      token.Pos
	via      string // callee name when the acquisition is transitive, "" when direct
}

func runLockOrder(pass *ProgramPass) {
	edges := map[[2]string]*lockEdge{} // first witness wins; walk order is deterministic
	for _, fn := range pass.Prog.Order {
		if fn.testFile {
			continue
		}
		walkLocks(pass.Prog, fn, edges)
	}

	// Adjacency over lock keys, nodes sorted for deterministic SCCs.
	adj := map[string][]string{}
	nodeSet := map[string]bool{}
	for k, e := range edges {
		adj[k[0]] = append(adj[k[0]], e.to)
		nodeSet[e.from], nodeSet[e.to] = true, true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, out := range adj {
		sort.Strings(out)
	}

	for _, scc := range tarjanSCC(nodes, adj) {
		if len(scc) < 2 {
			continue // self-edges (recursive acquisition) are not order inversions
		}
		inCycle := map[string]bool{}
		for _, n := range scc {
			inCycle[n] = true
		}
		// Witness: the earliest-positioned edge inside the cycle.
		var witness *lockEdge
		for k, e := range edges {
			if !inCycle[k[0]] || !inCycle[k[1]] {
				continue
			}
			if witness == nil || posLess(e, witness) {
				witness = e
			}
		}
		if witness == nil {
			continue
		}
		sort.Strings(scc)
		var short []string
		for _, n := range scc {
			short = append(short, trimModule(n))
		}
		via := ""
		if witness.via != "" {
			via = fmt.Sprintf(" via %s", witness.via)
		}
		pass.Reportf(witness.fn.Pkg, witness.pos,
			"lock-order cycle {%s}: %s acquired%s while %s is held; pick one acquisition order",
			strings.Join(short, ", "), trimModule(witness.to), via, trimModule(witness.from))
	}
}

func posLess(a, b *lockEdge) bool {
	pa := a.fn.Pkg.Fset.Position(a.pos)
	pb := b.fn.Pkg.Fset.Position(b.pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}

// walkLocks walks fn's body in source order with a held-lock set,
// recording held -> acquired edges. Branches of control-flow statements
// each see a copy of the held set — acquisitions inside a branch do not
// leak past it, which keeps `if x { mu.Lock(); ...; mu.Unlock() }`
// patterns from poisoning the rest of the function.
func walkLocks(prog *Program, fn *Function, edges map[[2]string]*lockEdge) {
	body := fn.Body()
	if body == nil {
		return
	}
	pkg := fn.Pkg
	goCalls := goCallsOf(fn)

	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return
		}
		k := [2]string{from, to}
		if edges[k] == nil {
			edges[k] = &lockEdge{from: from, to: to, fn: fn, pos: pos, via: via}
		}
	}
	copyOf := func(held map[string]bool) map[string]bool {
		c := make(map[string]bool, len(held))
		for k := range held {
			c[k] = true
		}
		return c
	}

	// walkExpr scans an expression subtree (no nested literals) for lock
	// operations and calls, in source order.
	var walkExpr func(e ast.Node, held map[string]bool)
	walkExpr = func(e ast.Node, held map[string]bool) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, kind, ok := lockCall(pkg, call); ok {
				if kind.acquire {
					for h := range held {
						addEdge(h, key, call.Pos(), "")
					}
					held[key] = true
				} else {
					delete(held, key)
				}
				return true
			}
			if goCalls[call] {
				return true // spawned call runs elsewhere; its args still walk
			}
			for _, callee := range prog.Callees(pkg, call) {
				if callee.Summary == nil {
					continue
				}
				for k := range callee.Summary.Trans {
					for h := range held {
						addEdge(h, k, call.Pos(), callee.Name())
					}
				}
			}
			return true
		})
	}

	var walkStmt func(s ast.Stmt, held map[string]bool)
	walkBlock := func(b *ast.BlockStmt, held map[string]bool) {
		if b == nil {
			return
		}
		for _, s := range b.List {
			walkStmt(s, held)
		}
	}
	walkStmt = func(s ast.Stmt, held map[string]bool) {
		switch st := s.(type) {
		case nil:
		case *ast.BlockStmt:
			walkBlock(st, held)
		case *ast.IfStmt:
			walkStmt(st.Init, held)
			walkExpr(st.Cond, held)
			walkBlock(st.Body, copyOf(held))
			if st.Else != nil {
				walkStmt(st.Else, copyOf(held))
			}
		case *ast.ForStmt:
			walkStmt(st.Init, held)
			walkExpr(st.Cond, held)
			inner := copyOf(held)
			walkBlock(st.Body, inner)
			walkStmt(st.Post, inner)
		case *ast.RangeStmt:
			walkExpr(st.X, held)
			walkBlock(st.Body, copyOf(held))
		case *ast.SwitchStmt:
			walkStmt(st.Init, held)
			walkExpr(st.Tag, held)
			for _, c := range st.Body.List {
				cc := c.(*ast.CaseClause)
				branch := copyOf(held)
				for _, e := range cc.List {
					walkExpr(e, branch)
				}
				for _, bs := range cc.Body {
					walkStmt(bs, branch)
				}
			}
		case *ast.TypeSwitchStmt:
			walkStmt(st.Init, held)
			walkStmt(st.Assign, held)
			for _, c := range st.Body.List {
				cc := c.(*ast.CaseClause)
				branch := copyOf(held)
				for _, bs := range cc.Body {
					walkStmt(bs, branch)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				cc := c.(*ast.CommClause)
				branch := copyOf(held)
				walkStmt(cc.Comm, branch)
				for _, bs := range cc.Body {
					walkStmt(bs, branch)
				}
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end, which
			// is exactly what the held set should reflect: do nothing. Any
			// other deferred call is approximated at the defer site.
			if key, kind, ok := lockCall(pkg, st.Call); ok {
				if kind.acquire {
					for h := range held {
						addEdge(h, key, st.Call.Pos(), "")
					}
					held[key] = true
				}
				return
			}
			walkExpr(st.Call, held)
		default:
			// Expression-bearing statements (ExprStmt, Assign, Return,
			// Send, Go, Decl, Inc/Dec, ...): scan in source order.
			walkExpr(s, held)
		}
	}
	walkStmt(body, map[string]bool{})
}

// tarjanSCC returns the strongly connected components of the directed
// graph, in deterministic order given sorted nodes and adjacency.
func tarjanSCC(nodes []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongConnect(v)
		}
	}
	return sccs
}
