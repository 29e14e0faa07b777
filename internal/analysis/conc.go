package analysis

import (
	"go/ast"
	"sort"
)

// conc.go is the shared substrate of the three concurrency analyzers:
// it projects the happens-before event index of one body (a declared
// function or a function literal) onto that body's control-flow graph,
// yielding per-block, source-ordered operation sequences that lockset
// and reachability dataflows can walk. Call sites that may transfer
// control to another analyzed body (static internal calls and dynamic
// calls resolved through points-to) ride along as explicit ops so
// interprocedural facts (a callee's transitively-acquired locks) apply
// at the right program point.

// concOp is one operation in a body: a concurrency event, or a call
// into other analyzed bodies.
type concOp struct {
	node    ast.Node
	ev      *hbEvent // nil for plain call ops
	call    *ast.CallExpr
	targets []hbBodyKey // resolved callee bodies for call ops
}

// bodyCFG is one body's control-flow graph with its operations mapped
// to blocks.
type bodyCFG struct {
	key hbBodyKey
	fi  *FuncInfo // owning declared function (for Info/Fset)
	g   *cfg
	ops map[int][]concOp // block -> ops in source order
	dom *domTree
}

// dominators lazily computes the body's dominator tree.
func (b *bodyCFG) dominators() *domTree {
	if b.dom == nil {
		b.dom = b.g.dominators()
	}
	return b.dom
}

// bodies returns every analyzed body in deterministic order: each
// declared function followed by its literals in source order.
func (g *hbGraph) bodies() []hbBodyKey {
	if g.bodyList != nil {
		return g.bodyList
	}
	for _, fi := range g.prog.funcsInOrder {
		if fi.Decl.Body == nil {
			continue
		}
		g.bodyList = append(g.bodyList, hbBodyKey{fn: fi.Fn})
		if g.litOwner == nil {
			g.litOwner = make(map[*ast.FuncLit]*FuncInfo)
		}
		fiLocal := fi
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				g.litOwner[lit] = fiLocal
				g.bodyList = append(g.bodyList, hbBodyKey{lit: lit})
			}
			return true
		})
	}
	return g.bodyList
}

// ownerOf returns the declared function whose source contains the body.
func (g *hbGraph) ownerOf(key hbBodyKey) *FuncInfo {
	if key.lit != nil {
		g.bodies()
		return g.litOwner[key.lit]
	}
	return g.prog.FuncOf(key.fn)
}

// bodyCFGOf builds (and memoizes) the mapped control-flow graph of one
// body.
func (g *hbGraph) bodyCFGOf(key hbBodyKey) *bodyCFG {
	if g.bodyCFGs == nil {
		g.bodyCFGs = make(map[hbBodyKey]*bodyCFG)
	}
	if b, ok := g.bodyCFGs[key]; ok {
		return b
	}
	fi := g.ownerOf(key)
	if fi == nil {
		g.bodyCFGs[key] = nil
		return nil
	}
	var cg *cfg
	var root *ast.BlockStmt
	if key.lit != nil {
		root = key.lit.Body
		cg = buildCFG(root)
	} else {
		root = fi.Decl.Body
		cg = g.prog.cfgOf(key.fn)
	}
	if cg == nil {
		g.bodyCFGs[key] = nil
		return nil
	}
	b := &bodyCFG{key: key, fi: fi, g: cg, ops: make(map[int][]concOp)}
	g.bodyCFGs[key] = b

	evByNode := make(map[ast.Node]*hbEvent)
	for _, ev := range g.bodyEvents[key] {
		evByNode[ev.node] = ev
	}
	info := fi.Pkg.Info

	var stack []ast.Node
	addOp := func(op concOp) {
		s := cg.enclosingRecorded(stack, op.node)
		if s == nil {
			return // dead code the CFG did not record
		}
		bi := cg.stmtBlock[s]
		b.ops[bi] = append(b.ops[bi], op)
	}
	underGoOrDefer := func(n ast.Node) bool {
		for i := len(stack) - 1; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.GoStmt:
				if p.Call == n {
					return true
				}
			case *ast.DeferStmt:
				if p.Call == n {
					return true
				}
			case *ast.FuncLit:
				return false
			}
		}
		return false
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// The walk starts at a body's BlockStmt, so any literal seen
			// here is nested: its own body, its ops, not this one's.
			return false
		}
		if ev, ok := evByNode[n]; ok {
			addOp(concOp{node: n, ev: ev})
		} else if call, ok := n.(*ast.CallExpr); ok && !underGoOrDefer(n) {
			if targets := g.resolveTargets(info, call); len(targets) > 0 {
				addOp(concOp{node: n, call: call, targets: targets})
			}
		}
		stack = append(stack, n)
		return true
	})
	for bi := range b.ops {
		ops := b.ops[bi]
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].node.Pos() < ops[j].node.Pos() })
	}
	return b
}

// terminalReachableAvoiding reports whether some path from the entry
// block reaches a terminal block (no successors) without entering a
// blocked block — i.e. whether the body has any non-blocking execution.
func terminalReachableAvoiding(g *cfg, blocked map[int]bool) bool {
	if len(g.blocks) == 0 {
		return true
	}
	seen := make([]bool, len(g.blocks))
	work := []int{0}
	if blocked[0] {
		return false
	}
	seen[0] = true
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		if len(g.blocks[bi].succs) == 0 {
			return true
		}
		for _, s := range g.blocks[bi].succs {
			if !seen[s] && !blocked[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// passFiles returns the set of filenames belonging to a pass — the
// program-wide analyzers report only findings landing in the current
// pass's package.
func passFiles(pass *Pass) map[string]bool {
	out := make(map[string]bool, len(pass.Files))
	for _, f := range pass.Files {
		out[pass.Fset.Position(f.Pos()).Filename] = true
	}
	return out
}
