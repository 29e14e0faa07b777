package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// pointsto.go is a flow-insensitive, field-sensitive Andersen-style
// points-to analysis over the whole root-package set. It answers the
// one question the concurrency analyzers (lockorder, goleak,
// chandiscipline) and the happens-before builder cannot do without:
// which concrete objects — channels created at which make sites, which
// mutex words, which function values — can an operand expression
// denote at run time. The existing per-function SSA escape oracle
// reasons about one frame; this layer reasons about identity across
// frames, so a channel handed from a constructor through a struct
// field into a worker goroutine still resolves to its allocation site.
//
// The model is the classic inclusion-constraint formulation:
//
//   - every variable, allocation site, function result, and reachable
//     (base, field) pair is a *location*;
//   - reference-typed expressions evaluate to sets of locations
//     (points-to sets); struct- and array-typed expressions evaluate
//     to the sets of locations *holding* them, and assignment copies
//     their interesting fields pairwise;
//   - calls bind arguments to parameters and returns to per-function
//     result locations, context-insensitively; calls the analysis
//     cannot see through (interface dispatch, unresolved function
//     values, external packages other than sync/sync/atomic) mark
//     their operands *escaped* — identity becomes unknown and every
//     consumer must assume the worst.
//
// Because function values are themselves tracked objects, the solved
// points-to sets also sharpen dynamic calls: a call through a function
// value whose set resolves to known function literals or declared
// functions is treated as a static call to those targets, which is
// how lockorder sees through batch.Pool's stored sweep closure where
// plain CHA devirtualization cannot.

// ptLocKind classifies a location.
type ptLocKind uint8

const (
	locVar     ptLocKind = iota // a named variable (local, param, global)
	locAlloc                    // an allocation site (make, new, &lit, composite, func lit)
	locField                    // field (or pseudo-element) of a base location
	locRet                      // one result of one function
	locTemp                     // expression temporary
	locUnknown                  // the external world
)

// ptLoc is one abstract memory location.
type ptLoc struct {
	id   int
	kind ptLocKind

	v     *types.Var  // locVar
	site  ast.Expr    // locAlloc: the allocation expression
	base  int         // locField: base location
	field *types.Var  // locField: nil means the element pseudo-field
	fn    *types.Func // locRet / locAlloc(func lit or func object): owning function
	lit   *ast.FuncLit
	ret   int // locRet: result index

	pos token.Position
	typ types.Type

	// chanCap records the buffer capacity of a make(chan) site:
	// -1 not a channel make, 0 unbuffered, >0 buffered, -2 buffered
	// with a non-constant capacity.
	chanCap int

	// pts is the location's contents: the locations any pointer-like
	// value stored here may refer to.
	pts map[int]struct{}
	// order keeps pts members in first-insertion order for
	// deterministic iteration.
	order []int

	// copies are plain subset edges: pts flows to these locations.
	copies []int
	// fieldAddrs materialize field locations of every pts member.
	fieldAddrs []ptFieldAddr
	// loads copy the contents of every pts member to a destination.
	loads []int
	// stores copy a source into every pts member, with value semantics
	// decided by the stored type.
	stores []ptStore
	// dynCalls bind newly-discovered function objects in pts as call
	// targets of a dynamic call site.
	dynCalls []*ptDynCall

	escaped   bool // location identity has leaked out of the program's view
	escHolder bool // anything stored here escapes
}

// ptFieldAddr is a pending "address of field" constraint.
type ptFieldAddr struct {
	field *types.Var // nil: element pseudo-field
	dst   int
}

// ptStore is a pending indirect store constraint.
type ptStore struct {
	src int
	typ types.Type
}

// ptSolver carries the constraint graph and the solved sets.
type ptSolver struct {
	prog *Program

	locs []*ptLoc
	varL map[*types.Var]int
	// fieldL interns (base, field) locations; element pseudo-fields
	// use a nil field var.
	fieldL map[ptFieldKey]int
	// allocL interns allocation sites; funcL interns declared functions
	// used as values.
	allocL map[ast.Expr]int
	funcL  map[*types.Func]int
	retL   map[retKey]int
	litRet map[*ast.FuncLit][]int

	// exprL memoizes the value node of every generated expression, so
	// analyzers can query pointsTo(e) on the same AST after solving.
	exprL map[ast.Expr]int
	// addrL memoizes address nodes of lvalue expressions.
	addrL map[ast.Expr]int

	unknown int

	work   []int
	inWork map[int]bool

	// info is the fact table of the package currently being generated.
	info *types.Info
	// retStack tracks the result locations return statements bind to
	// (function literals push their own frame).
	retStack [][]int
}

type ptFieldKey struct {
	base  int
	field *types.Var
}

type retKey struct {
	fn  *types.Func
	lit *ast.FuncLit
	i   int
}

// pointsToSolver builds (once, memoized on the Program) and solves the
// whole-program constraint system.
func (prog *Program) pointsToSolver() *ptSolver {
	if prog.ptSolve != nil {
		return prog.ptSolve
	}
	s := &ptSolver{
		prog:   prog,
		varL:   make(map[*types.Var]int),
		fieldL: make(map[ptFieldKey]int),
		allocL: make(map[ast.Expr]int),
		funcL:  make(map[*types.Func]int),
		retL:   make(map[retKey]int),
		litRet: make(map[*ast.FuncLit][]int),
		exprL:  make(map[ast.Expr]int),
		addrL:  make(map[ast.Expr]int),
		inWork: make(map[int]bool),
	}
	prog.ptSolve = s
	s.unknown = s.newLoc(locUnknown, nil)
	u := s.locs[s.unknown]
	u.escaped, u.escHolder = true, true
	s.addPts(s.unknown, s.unknown)
	for _, fi := range prog.funcsInOrder {
		if fi.Decl.Body == nil {
			continue
		}
		s.info = fi.Pkg.Info
		s.retStack = [][]int{s.declRets(fi)}
		s.genStmt(fi.Decl.Body)
		s.retStack = nil
	}
	// Package-level initializers: channels and locks born in var blocks.
	for _, pkg := range prog.Pkgs {
		s.info = pkg.Info
		s.retStack = [][]int{nil}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						s.genValueSpec(vs)
					}
				}
			}
		}
		s.retStack = nil
	}
	s.openWorld()
	s.solve()
	return s
}

// openWorld applies the open-world assumption: exported functions and
// variables are reachable from code outside the analyzed root set —
// external importers and the package's own tests (test files are not
// loaded). Their parameters and receivers may be bound to arbitrary
// unknown objects, and everything flowing out through their results
// leaks. Without this, a channel sent to only by an exported method
// with no internal caller would look sender-less and produce a false
// "blocks forever" on its worker goroutine.
func (s *ptSolver) openWorld() {
	leakVar := func(v *types.Var) {
		if v == nil || !interesting(v.Type()) {
			return
		}
		l := s.varLoc(v)
		s.markEscaped(l)
		if !isStructLike(v.Type()) {
			s.addPts(l, s.unknown)
		}
	}
	for _, fi := range s.prog.funcsInOrder {
		if !fi.Fn.Exported() {
			continue
		}
		s.info = fi.Pkg.Info
		if fi.Decl.Recv != nil {
			for _, fld := range fi.Decl.Recv.List {
				for _, name := range fld.Names {
					v, _ := fi.Pkg.Info.Defs[name].(*types.Var)
					leakVar(v)
				}
			}
		}
		if fi.Decl.Type.Params != nil {
			for _, fld := range fi.Decl.Type.Params.List {
				for _, name := range fld.Names {
					v, _ := fi.Pkg.Info.Defs[name].(*types.Var)
					leakVar(v)
				}
			}
		}
		if sig, ok := fi.Fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Results().Len(); i++ {
				rt := sig.Results().At(i).Type()
				if interesting(rt) {
					s.escapeContents(s.retLoc(fi.Fn, nil, i, rt))
				}
			}
		}
	}
	for _, pkg := range s.prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok && v.Exported() {
				leakVar(v)
			}
		}
	}
}

// newLoc appends a fresh location.
func (s *ptSolver) newLoc(kind ptLocKind, typ types.Type) int {
	l := &ptLoc{id: len(s.locs), kind: kind, typ: typ, chanCap: -1, pts: make(map[int]struct{})}
	s.locs = append(s.locs, l)
	return l.id
}

// varLoc interns the location of a named variable.
func (s *ptSolver) varLoc(v *types.Var) int {
	if id, ok := s.varL[v]; ok {
		return id
	}
	id := s.newLoc(locVar, v.Type())
	s.locs[id].v = v
	s.varL[v] = id
	return id
}

// fieldLoc interns a (base, field) location; nil field is the element
// pseudo-field of slices, arrays, maps, and channels.
func (s *ptSolver) fieldLoc(base int, field *types.Var) int {
	if base == s.unknown {
		return s.unknown
	}
	key := ptFieldKey{base, field}
	if id, ok := s.fieldL[key]; ok {
		return id
	}
	var ft types.Type
	if field != nil {
		ft = field.Type()
	} else if bt := s.locs[base].typ; bt != nil {
		ft = elemTypeOf(bt)
	}
	id := s.newLoc(locField, ft)
	s.fieldL[key] = id
	l := s.locs[id]
	l.base, l.field = base, field
	l.pos = s.locs[base].pos
	if b := s.locs[base]; b.escaped {
		s.markEscaped(id)
	}
	return id
}

// elemTypeOf returns the element type carried by a container type.
func elemTypeOf(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	case *types.Pointer:
		return elemTypeOf(u.Elem())
	}
	return nil
}

// retLoc interns one result location of a declared function or literal.
func (s *ptSolver) retLoc(fn *types.Func, lit *ast.FuncLit, i int, typ types.Type) int {
	key := retKey{fn, lit, i}
	if id, ok := s.retL[key]; ok {
		return id
	}
	id := s.newLoc(locRet, typ)
	s.locs[id].fn = fn
	s.locs[id].ret = i
	s.retL[key] = id
	return id
}

// declRets builds (and registers) the result locations of a declared
// function, wiring named results to their variables.
func (s *ptSolver) declRets(fi *FuncInfo) []int {
	sig, ok := fi.Fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	rets := make([]int, sig.Results().Len())
	for i := 0; i < sig.Results().Len(); i++ {
		rets[i] = s.retLoc(fi.Fn, nil, i, sig.Results().At(i).Type())
	}
	// Named results: the variable feeds the result location on every
	// return (including bare returns).
	if fi.Decl.Type.Results != nil {
		i := 0
		for _, fld := range fi.Decl.Type.Results.List {
			n := len(fld.Names)
			if n == 0 {
				i++
				continue
			}
			for _, name := range fld.Names {
				if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok && i < len(rets) {
					s.copyValue(s.varLoc(v), rets[i], v.Type())
				}
				i++
			}
		}
	}
	return rets
}

// interesting reports whether a type can carry identity the analysis
// tracks: channels, pointers, functions, interfaces, maps, slices,
// and structs/arrays containing any of those.
func interesting(t types.Type) bool {
	return interestingDepth(t, 0)
}

func interestingDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Chan, *types.Pointer, *types.Signature, *types.Interface, *types.Map:
		return true
	case *types.Slice:
		return true
	case *types.Array:
		return interestingDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if interestingDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// isStructLike reports value types whose assignment copies fields
// rather than a reference.
func isStructLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// ---- constraint primitives -------------------------------------------------

// addPts seeds one location into a set and queues propagation.
func (s *ptSolver) addPts(n, l int) {
	loc := s.locs[n]
	if _, ok := loc.pts[l]; ok {
		return
	}
	loc.pts[l] = struct{}{}
	loc.order = append(loc.order, l)
	if loc.escHolder {
		s.markEscaped(l)
	}
	if !s.inWork[n] {
		s.inWork[n] = true
		s.work = append(s.work, n)
	}
}

// copyEdge adds the subset edge src ⊆ dst.
func (s *ptSolver) copyEdge(src, dst int) {
	if src == dst {
		return
	}
	loc := s.locs[src]
	loc.copies = append(loc.copies, dst)
	for _, l := range loc.order {
		s.addPts(dst, l)
	}
}

// copyValue copies a value of the given type from one location-held
// slot to another: reference types get a subset edge, struct/array
// values copy interesting fields pairwise.
func (s *ptSolver) copyValue(src, dst int, t types.Type) {
	if src == dst || t == nil || !interesting(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if interesting(f.Type()) {
				s.copyValue(s.fieldLoc(src, f), s.fieldLoc(dst, f), f.Type())
			}
		}
	case *types.Array:
		s.copyValue(s.fieldLoc(src, nil), s.fieldLoc(dst, nil), u.Elem())
	default:
		s.copyEdge(src, dst)
	}
}

// fieldAddrC registers: for every location L in pts(base), add
// fieldLoc(L, f) to pts(dst).
func (s *ptSolver) fieldAddrC(base int, f *types.Var, dst int) {
	loc := s.locs[base]
	loc.fieldAddrs = append(loc.fieldAddrs, ptFieldAddr{field: f, dst: dst})
	for _, l := range loc.order {
		s.addPts(dst, s.fieldLoc(l, f))
	}
}

// loadC registers: for every location L in pts(addr), copy L's
// contents to dst.
func (s *ptSolver) loadC(addr, dst int) {
	loc := s.locs[addr]
	loc.loads = append(loc.loads, dst)
	for _, l := range loc.order {
		s.copyEdge(l, dst)
	}
}

// storeC registers: for every location L in pts(addr), copy src into L
// with the given value type's semantics.
func (s *ptSolver) storeC(addr, src int, t types.Type) {
	loc := s.locs[addr]
	loc.stores = append(loc.stores, ptStore{src: src, typ: t})
	for _, l := range loc.order {
		s.copyValue(src, l, t)
	}
}

// markEscaped records a location's identity as leaked: its contents
// and all of its fields leak too.
func (s *ptSolver) markEscaped(l int) {
	loc := s.locs[l]
	if loc.escaped {
		return
	}
	loc.escaped = true
	if !loc.escHolder {
		loc.escHolder = true
		for _, m := range loc.order {
			s.markEscaped(m)
		}
	}
	for key, id := range s.fieldL {
		if key.base == l {
			s.markEscaped(id)
		}
	}
}

// escapeContents marks everything stored in a node (now and later) as
// escaped.
func (s *ptSolver) escapeContents(n int) {
	loc := s.locs[n]
	if loc.escHolder {
		return
	}
	loc.escHolder = true
	for _, l := range loc.order {
		s.markEscaped(l)
	}
}

// solve drains the worklist to the least fixed point.
func (s *ptSolver) solve() {
	for len(s.work) > 0 {
		n := s.work[0]
		s.work = s.work[1:]
		s.inWork[n] = false
		loc := s.locs[n]
		// Snapshot: constraints may append while we iterate.
		members := append([]int(nil), loc.order...)
		for ci := 0; ci < len(loc.copies); ci++ {
			dst := loc.copies[ci]
			for _, l := range members {
				s.addPts(dst, l)
			}
		}
		for ci := 0; ci < len(loc.fieldAddrs); ci++ {
			fa := loc.fieldAddrs[ci]
			for _, l := range members {
				s.addPts(fa.dst, s.fieldLoc(l, fa.field))
			}
		}
		for ci := 0; ci < len(loc.loads); ci++ {
			dst := loc.loads[ci]
			for _, l := range members {
				s.copyEdge(l, dst)
			}
		}
		for ci := 0; ci < len(loc.stores); ci++ {
			st := loc.stores[ci]
			for _, l := range members {
				s.copyValue(st.src, l, st.typ)
			}
		}
		for ci := 0; ci < len(loc.dynCalls); ci++ {
			c := loc.dynCalls[ci]
			for _, l := range members {
				c.apply(l)
			}
		}
	}
}

// ---- constraint generation -------------------------------------------------

// genStmt lowers one statement (recursively) into constraints.
func (s *ptSolver) genStmt(stmt ast.Stmt) {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		for _, c := range st.List {
			s.genStmt(c)
		}
	case *ast.AssignStmt:
		s.genAssign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					s.genValueSpec(vs)
				}
			}
		}
	case *ast.ExprStmt:
		s.genExpr(st.X)
	case *ast.SendStmt:
		ch := s.genExpr(st.Chan)
		v := s.genExpr(st.Value)
		if t := s.typeOf(st.Value); t != nil && interesting(t) {
			// Element store: the sent value lands in the channel's
			// element slot.
			tmp := s.newLoc(locTemp, nil)
			s.fieldAddrC(ch, nil, tmp)
			s.storeLocsOf(tmp, v, t)
		}
	case *ast.ReturnStmt:
		rets := s.retStack[len(s.retStack)-1]
		for i, r := range st.Results {
			v := s.genExpr(r)
			if i < len(rets) {
				s.assignValue(rets[i], v, s.typeOf(r))
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.genStmt(st.Init)
		}
		s.genExpr(st.Cond)
		s.genStmt(st.Body)
		if st.Else != nil {
			s.genStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.genStmt(st.Init)
		}
		if st.Cond != nil {
			s.genExpr(st.Cond)
		}
		if st.Post != nil {
			s.genStmt(st.Post)
		}
		s.genStmt(st.Body)
	case *ast.RangeStmt:
		s.genRange(st)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.genStmt(st.Init)
		}
		if st.Tag != nil {
			s.genExpr(st.Tag)
		}
		s.genStmt(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.genStmt(st.Init)
		}
		s.genStmt(st.Assign)
		s.genStmt(st.Body)
	case *ast.SelectStmt:
		s.genStmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			s.genExpr(e)
		}
		for _, c := range st.Body {
			s.genStmt(c)
		}
	case *ast.CommClause:
		if st.Comm != nil {
			s.genStmt(st.Comm)
		}
		for _, c := range st.Body {
			s.genStmt(c)
		}
	case *ast.GoStmt:
		s.genCall(st.Call)
	case *ast.DeferStmt:
		s.genCall(st.Call)
	case *ast.LabeledStmt:
		s.genStmt(st.Stmt)
	case *ast.IncDecStmt:
		s.genExpr(st.X)
	}
}

// genValueSpec lowers `var a, b T = x, y` declarations.
func (s *ptSolver) genValueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		v, ok := s.info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		dst := s.varLoc(v)
		if len(vs.Values) == len(vs.Names) {
			src := s.genExpr(vs.Values[i])
			s.assignValue(dst, src, v.Type())
		} else if len(vs.Values) == 1 {
			s.genMultiAssign([]int{dst}, []types.Type{v.Type()}, vs.Values[0], i)
		}
	}
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		s.genExpr(vs.Values[0])
	}
}

// genAssign lowers assignments and short declarations.
func (s *ptSolver) genAssign(st *ast.AssignStmt) {
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			src := s.genExpr(st.Rhs[i])
			s.assignTo(st.Lhs[i], src, s.typeOf(st.Rhs[i]))
		}
		return
	}
	// Multi-value RHS: call, map index, type assert, channel receive.
	if len(st.Rhs) != 1 {
		return
	}
	rhs := st.Rhs[0]
	for i, l := range st.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if ok && id.Name == "_" {
			continue
		}
		_ = id
		t := s.typeOf(l)
		dst := s.addrNode(l)
		tmp := s.newLoc(locTemp, t)
		s.genMultiAssign([]int{tmp}, []types.Type{t}, rhs, i)
		s.storeLocsOf(dst, tmp, t)
	}
	s.genExpr(rhs)
}

// genMultiAssign binds result i of a multi-valued expression to dst.
func (s *ptSolver) genMultiAssign(dst []int, ts []types.Type, rhs ast.Expr, i int) {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		rets := s.genCall(r)
		if i < len(rets) && len(dst) > 0 {
			s.assignValue(dst[0], rets[i], ts[0])
		}
	case *ast.TypeAssertExpr:
		if i == 0 && len(dst) > 0 {
			s.assignValue(dst[0], s.genExpr(r.X), ts[0])
		}
	case *ast.IndexExpr:
		if i == 0 && len(dst) > 0 {
			s.assignValue(dst[0], s.genExpr(r), ts[0])
		}
	case *ast.UnaryExpr:
		if r.Op == token.ARROW && i == 0 && len(dst) > 0 {
			s.assignValue(dst[0], s.genExpr(r), ts[0])
		}
	}
}

// assignTo stores a source node into the locations an lvalue denotes.
func (s *ptSolver) assignTo(lhs ast.Expr, src int, t types.Type) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if t == nil || !interesting(t) {
		s.genExpr(lhs)
		return
	}
	addr := s.addrNode(lhs)
	s.storeLocsOf(addr, src, t)
}

// storeLocsOf copies src into every location in pts(addr).
func (s *ptSolver) storeLocsOf(addr, src int, t types.Type) {
	s.storeC(addr, src, t)
}

// assignValue copies src into one known location.
func (s *ptSolver) assignValue(dst, src int, t types.Type) {
	if t == nil || !interesting(t) {
		return
	}
	if isStructLike(t) {
		// Struct-valued nodes are address-like: copy fieldwise across
		// every (src, dst) location pair.
		tmp := s.newLoc(locTemp, t)
		s.addPts(tmp, dst)
		s.storeC(tmp, src, t)
		return
	}
	s.copyEdge(src, dst)
}

// genRange lowers `for k, v := range x`.
func (s *ptSolver) genRange(st *ast.RangeStmt) {
	x := s.genExpr(st.X)
	xt := s.typeOf(st.X)
	if st.Value != nil {
		if vt := s.typeOf(st.Value); vt != nil && interesting(vt) {
			// v draws from the element slot of every ranged container.
			tmp := s.newLoc(locTemp, vt)
			s.elemOf(x, xt, tmp)
			s.assignTo(st.Value, tmp, vt)
		}
	}
	if st.Key != nil {
		if kt := s.typeOf(st.Key); kt != nil && interesting(kt) {
			// Channel range yields elements through the key.
			if xt != nil {
				if _, isChan := xt.Underlying().(*types.Chan); isChan {
					tmp := s.newLoc(locTemp, kt)
					s.elemOf(x, xt, tmp)
					s.assignTo(st.Key, tmp, kt)
				}
			}
		}
	}
	s.genStmt(st.Body)
}

// elemOf loads the element slot of every container in x into dst,
// dereferencing container values held directly (arrays) or by
// reference (slices, maps, chans).
func (s *ptSolver) elemOf(x int, xt types.Type, dst int) {
	tmp := s.newLoc(locTemp, nil)
	if xt != nil && isStructLike(xt) {
		// Array value: x is address-like.
		s.fieldAddrC(x, nil, tmp)
	} else {
		s.fieldAddrC(x, nil, tmp)
	}
	s.loadC(tmp, dst)
}

func (s *ptSolver) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// addrNode returns a node whose points-to set is the set of locations
// the lvalue expression denotes.
func (s *ptSolver) addrNode(e ast.Expr) int {
	if n, ok := s.addrL[e]; ok {
		return n
	}
	n := s.buildAddrNode(e)
	s.addrL[e] = n
	return n
}

func (s *ptSolver) buildAddrNode(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return s.addrNode(x.X)
	case *ast.Ident:
		n := s.newLoc(locTemp, nil)
		if v, ok := s.objVarOf(x); ok {
			s.addPts(n, s.varLoc(v))
		} else {
			s.addPts(n, s.unknown)
		}
		return n
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			n := s.newLoc(locTemp, nil)
			// Embedded-field paths walk intermediate fields; through an
			// embedded pointer the next hop reads the pointer's contents.
			idx := sel.Index()
			st := sel.Recv()
			cur := s.baseLocsNode(x.X)
			for d, fieldIdx := range idx {
				stv := derefType(st)
				var fv *types.Var
				if su, ok := stv.Underlying().(*types.Struct); ok && fieldIdx < su.NumFields() {
					fv = su.Field(fieldIdx)
				}
				if fv == nil {
					s.addPts(n, s.unknown)
					return n
				}
				if d == len(idx)-1 {
					s.fieldAddrC(cur, fv, n)
					break
				}
				next := s.newLoc(locTemp, nil)
				s.fieldAddrC(cur, fv, next)
				if _, isPtr := fv.Type().Underlying().(*types.Pointer); isPtr {
					hop := s.newLoc(locTemp, nil)
					s.loadC(next, hop)
					cur = hop
				} else {
					cur = next
				}
				st = fv.Type()
			}
			return n
		}
		// Package-qualified variable.
		if v, ok := s.info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			n := s.newLoc(locTemp, nil)
			s.addPts(n, s.varLoc(v))
			return n
		}
		n := s.newLoc(locTemp, nil)
		s.addPts(n, s.unknown)
		return n
	case *ast.IndexExpr:
		n := s.newLoc(locTemp, nil)
		base := s.baseLocsNode(x.X)
		s.genExpr(x.Index)
		s.fieldAddrC(base, nil, n)
		return n
	case *ast.StarExpr:
		return s.genExpr(x.X)
	case *ast.CompositeLit:
		// &T{...}: the literal's allocation is itself the object, so the
		// address node is exactly the composite's value node (pts = the
		// allocation). Wrapping it in a fresh slot would split the object
		// in two — one carrying the initialized fields, one flowing to
		// the caller — and lose every store made through the result.
		return s.genComposite(x, s.typeOf(x))
	}
	// Non-addressable: wrap the value in a temporary location.
	t := s.typeOf(e)
	tmp := s.newLoc(locTemp, t)
	v := s.genExpr(e)
	s.assignValue(tmp, v, t)
	n := s.newLoc(locTemp, nil)
	s.addPts(n, tmp)
	return n
}

// objVarOf resolves an identifier to its variable object.
func (s *ptSolver) objVarOf(id *ast.Ident) (*types.Var, bool) {
	if v, ok := s.info.Uses[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := s.info.Defs[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

// baseLocsNode returns a node holding the base locations of a field or
// index access: for a pointer/slice/map base the pointees, for a value
// base the denoted locations.
func (s *ptSolver) baseLocsNode(x ast.Expr) int {
	t := s.typeOf(x)
	if t != nil && isStructLike(t) {
		return s.addrNode(x)
	}
	return s.genExpr(x)
}

// derefType strips one pointer layer.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// genExpr lowers an expression and returns its value node: for
// reference types the points-to set of the value, for struct/array
// values the set of locations holding them.
func (s *ptSolver) genExpr(e ast.Expr) int {
	if e == nil {
		return s.newLoc(locTemp, nil)
	}
	if n, ok := s.exprL[e]; ok {
		return n
	}
	n := s.buildExpr(e)
	s.exprL[e] = n
	return n
}

func (s *ptSolver) buildExpr(e ast.Expr) int {
	t := s.typeOf(e)
	switch x := e.(type) {
	case *ast.ParenExpr:
		return s.genExpr(x.X)
	case *ast.Ident:
		if fn, ok := s.info.Uses[x].(*types.Func); ok {
			return s.funcValue(fn)
		}
		if v, ok := s.objVarOf(x); ok {
			if isStructLike(v.Type()) {
				n := s.newLoc(locTemp, t)
				s.addPts(n, s.varLoc(v))
				return n
			}
			n := s.newLoc(locTemp, t)
			s.copyEdge(s.varLoc(v), n)
			return n
		}
		return s.newLoc(locTemp, t)
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[x]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				addr := s.addrNode(x)
				n := s.newLoc(locTemp, t)
				if t != nil && isStructLike(t) {
					s.copyEdge(addr, n)
					return n
				}
				s.loadC(addr, n)
				return n
			case types.MethodVal, types.MethodExpr:
				// A bound method value retains its receiver; treat the
				// receiver as escaping and the value as opaque.
				rcv := s.genExpr(x.X)
				s.escapeContents(rcv)
				n := s.newLoc(locTemp, t)
				s.addPts(n, s.unknown)
				return n
			}
		}
		if fn, ok := s.info.Uses[x.Sel].(*types.Func); ok {
			return s.funcValue(fn)
		}
		if _, ok := s.info.Uses[x.Sel].(*types.Var); ok {
			addr := s.addrNode(x)
			n := s.newLoc(locTemp, t)
			if t != nil && isStructLike(t) {
				s.copyEdge(addr, n)
				return n
			}
			s.loadC(addr, n)
			return n
		}
		return s.newLoc(locTemp, t)
	case *ast.CallExpr:
		rets := s.genCall(x)
		n := s.newLoc(locTemp, t)
		if len(rets) > 0 {
			if t != nil && isStructLike(t) {
				for _, r := range rets {
					s.addPts(n, r)
				}
			} else {
				for _, r := range rets {
					s.copyEdge(r, n)
				}
			}
		}
		return n
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			addr := s.addrNode(x.X)
			n := s.newLoc(locTemp, t)
			s.copyEdge(addr, n)
			return n
		case token.ARROW:
			ch := s.genExpr(x.X)
			n := s.newLoc(locTemp, t)
			if t != nil && interesting(t) {
				s.elemOf(ch, s.typeOf(x.X), n)
			}
			return n
		}
		s.genExpr(x.X)
		return s.newLoc(locTemp, t)
	case *ast.StarExpr:
		p := s.genExpr(x.X)
		n := s.newLoc(locTemp, t)
		if t != nil && isStructLike(t) {
			s.copyEdge(p, n)
			return n
		}
		s.loadC(p, n)
		return n
	case *ast.IndexExpr:
		addr := s.addrNode(x)
		n := s.newLoc(locTemp, t)
		if t != nil && isStructLike(t) {
			s.copyEdge(addr, n)
			return n
		}
		s.loadC(addr, n)
		return n
	case *ast.SliceExpr:
		// Re-slicing preserves identity.
		v := s.genExpr(x.X)
		n := s.newLoc(locTemp, t)
		s.copyEdge(v, n)
		return n
	case *ast.TypeAssertExpr:
		v := s.genExpr(x.X)
		n := s.newLoc(locTemp, t)
		s.copyEdge(v, n)
		return n
	case *ast.CompositeLit:
		return s.genComposite(x, t)
	case *ast.FuncLit:
		return s.genFuncLit(x, t)
	case *ast.BinaryExpr:
		s.genExpr(x.X)
		s.genExpr(x.Y)
		return s.newLoc(locTemp, t)
	case *ast.KeyValueExpr:
		return s.genExpr(x.Value)
	}
	return s.newLoc(locTemp, t)
}

// funcValue interns the object location of a declared function used as
// a value; external functions are opaque.
func (s *ptSolver) funcValue(fn *types.Func) int {
	n := s.newLoc(locTemp, fn.Type())
	if s.prog.FuncOf(fn) == nil {
		s.addPts(n, s.unknown)
		return n
	}
	id, ok := s.funcL[fn]
	if !ok {
		id = s.newLoc(locAlloc, fn.Type())
		s.locs[id].fn = fn
		s.funcL[fn] = id
	}
	s.addPts(n, id)
	return n
}

// genFuncLit allocates the literal's closure object and lowers its
// body with its own return frame.
func (s *ptSolver) genFuncLit(lit *ast.FuncLit, t types.Type) int {
	id, ok := s.allocL[lit]
	if !ok {
		id = s.newLoc(locAlloc, t)
		s.allocL[lit] = id
		s.locs[id].site = lit
		s.locs[id].lit = lit
		sig, _ := t.(*types.Signature)
		var rets []int
		if sig != nil {
			for i := 0; i < sig.Results().Len(); i++ {
				rets = append(rets, s.retLoc(nil, lit, i, sig.Results().At(i).Type()))
			}
		}
		// Named results of the literal feed its return locations.
		if lit.Type.Results != nil {
			i := 0
			for _, fld := range lit.Type.Results.List {
				if len(fld.Names) == 0 {
					i++
					continue
				}
				for _, name := range fld.Names {
					if v, ok := s.info.Defs[name].(*types.Var); ok && i < len(rets) {
						s.copyValue(s.varLoc(v), rets[i], v.Type())
					}
					i++
				}
			}
		}
		s.litRet[lit] = rets
		s.retStack = append(s.retStack, rets)
		s.genStmt(lit.Body)
		s.retStack = s.retStack[:len(s.retStack)-1]
	}
	n := s.newLoc(locTemp, t)
	s.addPts(n, id)
	return n
}

// genComposite allocates a composite literal and stores its elements.
func (s *ptSolver) genComposite(cl *ast.CompositeLit, t types.Type) int {
	id, ok := s.allocL[cl]
	if !ok {
		id = s.newLoc(locAlloc, t)
		s.allocL[cl] = id
		s.locs[id].site = cl
		if s.info != nil {
			s.locs[id].pos = s.posOf(cl.Pos())
		}
		switch u := derefType(t).Underlying().(type) {
		case *types.Struct:
			for i, el := range cl.Elts {
				var f *types.Var
				var val ast.Expr
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if kid, ok := kv.Key.(*ast.Ident); ok {
						f, _ = s.info.Uses[kid].(*types.Var)
					}
					val = kv.Value
				} else if i < u.NumFields() {
					f, val = u.Field(i), el
				}
				if val == nil {
					continue
				}
				v := s.genExpr(val)
				if f != nil && interesting(f.Type()) {
					s.assignValue(s.fieldLoc(id, f), v, f.Type())
				}
			}
		case *types.Slice, *types.Array, *types.Map:
			et := elemTypeOf(t)
			for _, el := range cl.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					s.genExpr(kv.Key)
					val = kv.Value
				}
				v := s.genExpr(val)
				if et != nil && interesting(et) {
					s.assignValue(s.fieldLoc(id, nil), v, et)
				}
			}
		}
	}
	n := s.newLoc(locTemp, t)
	s.addPts(n, id)
	return n
}

func (s *ptSolver) posOf(p token.Pos) token.Position {
	for _, pkg := range s.prog.Pkgs {
		if pkg.Fset != nil {
			return pkg.Fset.Position(p)
		}
	}
	return token.Position{}
}

// genCall lowers one call and returns the callee result locations
// (shared, context-insensitive).
func (s *ptSolver) genCall(call *ast.CallExpr) []int {
	// Conversion, not a call.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			v := s.genExpr(call.Args[0])
			n := s.newLoc(locTemp, tv.Type)
			s.copyEdge(v, n)
			return []int{n}
		}
		return nil
	}
	obj := calleeObjectIn(s.info, call)
	switch callee := obj.(type) {
	case *types.Builtin:
		return s.genBuiltin(callee.Name(), call)
	case *types.Func:
		if fi := s.prog.funcs[callee]; fi != nil {
			return s.bindStatic(fi, call)
		}
		return s.genExternal(callee, call)
	}
	// Dynamic call through a function value: resolve via points-to.
	fun := s.genExpr(call.Fun)
	return s.bindDynamic(fun, call)
}

// genBuiltin models the builtins that move identity around.
func (s *ptSolver) genBuiltin(name string, call *ast.CallExpr) []int {
	switch name {
	case "make":
		t := s.typeOf(call)
		id := s.allocSite(call, t)
		if ch, ok := t.Underlying().(*types.Chan); ok {
			_ = ch
			cap := 0
			if len(call.Args) >= 2 {
				cap = -2
				if tv, ok := s.info.Types[call.Args[1]]; ok && tv.Value != nil {
					if c, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
						cap = int(c)
					}
				}
			}
			s.locs[id].chanCap = cap
		}
		for _, a := range call.Args[1:] {
			s.genExpr(a)
		}
		n := s.newLoc(locTemp, t)
		s.addPts(n, id)
		return []int{n}
	case "new":
		t := s.typeOf(call)
		var et types.Type
		if p, ok := t.Underlying().(*types.Pointer); ok {
			et = p.Elem()
		}
		id := s.allocSite(call, et)
		n := s.newLoc(locTemp, t)
		s.addPts(n, id)
		return []int{n}
	case "append":
		if len(call.Args) == 0 {
			return nil
		}
		base := s.genExpr(call.Args[0])
		t := s.typeOf(call.Args[0])
		n := s.newLoc(locTemp, t)
		s.copyEdge(base, n)
		et := elemTypeOf(t)
		for _, a := range call.Args[1:] {
			v := s.genExpr(a)
			if call.Ellipsis.IsValid() {
				// append(s, xs...): element-to-element copy.
				tmpSrc := s.newLoc(locTemp, nil)
				s.fieldAddrC(v, nil, tmpSrc)
				tmpDst := s.newLoc(locTemp, nil)
				s.fieldAddrC(n, nil, tmpDst)
				mid := s.newLoc(locTemp, et)
				s.loadC(tmpSrc, mid)
				if et != nil && interesting(et) {
					s.storeC(tmpDst, mid, et)
				}
				continue
			}
			if et != nil && interesting(et) {
				tmp := s.newLoc(locTemp, nil)
				s.fieldAddrC(n, nil, tmp)
				s.storeC(tmp, v, et)
			}
		}
		return []int{n}
	case "copy":
		if len(call.Args) == 2 {
			dst := s.genExpr(call.Args[0])
			src := s.genExpr(call.Args[1])
			et := elemTypeOf(s.typeOf(call.Args[0]))
			if et != nil && interesting(et) {
				tmpSrc := s.newLoc(locTemp, nil)
				s.fieldAddrC(src, nil, tmpSrc)
				mid := s.newLoc(locTemp, et)
				s.loadC(tmpSrc, mid)
				tmpDst := s.newLoc(locTemp, nil)
				s.fieldAddrC(dst, nil, tmpDst)
				s.storeC(tmpDst, mid, et)
			}
		}
		return nil
	case "panic":
		if len(call.Args) == 1 {
			s.escapeContents(s.genExpr(call.Args[0]))
		}
		return nil
	default: // len, cap, close, delete, print, println, min, max, clear
		for _, a := range call.Args {
			s.genExpr(a)
		}
		return nil
	}
}

// allocSite interns an allocation location for a make/new call.
func (s *ptSolver) allocSite(e ast.Expr, t types.Type) int {
	if id, ok := s.allocL[e]; ok {
		return id
	}
	id := s.newLoc(locAlloc, t)
	s.allocL[e] = id
	s.locs[id].site = e
	s.locs[id].pos = s.posOf(e.Pos())
	return id
}

// bindStatic wires a call to a declared root-package function.
func (s *ptSolver) bindStatic(fi *FuncInfo, call *ast.CallExpr) []int {
	sig, _ := fi.Fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	// Receiver.
	if sig.Recv() != nil {
		if recvOperand := receiverOperand(call); recvOperand != nil {
			s.bindReceiver(sig.Recv(), recvOperand, fi)
		}
	}
	s.bindArgs(sig, call, fi.Fn, nil)
	var rets []int
	for i := 0; i < sig.Results().Len(); i++ {
		rets = append(rets, s.retLoc(fi.Fn, nil, i, sig.Results().At(i).Type()))
	}
	return rets
}

// receiverOperand extracts the receiver expression of a method call.
func receiverOperand(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// bindReceiver copies the receiver operand into the receiver
// parameter, inserting the automatic address-of / dereference the
// language performs.
func (s *ptSolver) bindReceiver(recv *types.Var, operand ast.Expr, fi *FuncInfo) {
	var recvVar *types.Var
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 && len(fi.Decl.Recv.List[0].Names) > 0 {
		recvVar, _ = fi.Pkg.Info.Defs[fi.Decl.Recv.List[0].Names[0]].(*types.Var)
	}
	if recvVar == nil {
		s.escapeContents(s.genExpr(operand))
		return
	}
	dst := s.varLoc(recvVar)
	opT := s.typeOf(operand)
	_, wantPtr := recv.Type().Underlying().(*types.Pointer)
	_, haveParamPtr := opT.Underlying().(*types.Pointer)
	switch {
	case wantPtr && !haveParamPtr:
		// Auto &x: the parameter points at the operand's locations.
		addr := s.addrNode(operand)
		s.copyEdge(addr, dst)
	case !wantPtr && haveParamPtr:
		// Auto *x: copy the pointee's value.
		p := s.genExpr(operand)
		s.storeLocsToValue(p, dst, recv.Type())
	default:
		v := s.genExpr(operand)
		s.assignValue(dst, v, recv.Type())
	}
}

// storeLocsToValue copies each location in pts(src) into dst with
// value semantics (the *x receiver adjustment).
func (s *ptSolver) storeLocsToValue(src, dst int, t types.Type) {
	tmp := s.newLoc(locTemp, nil)
	s.addPts(tmp, dst)
	// ∀ℓ∈pts(src): copyValue(ℓ → dst, t): reuse store with a loaded mid.
	mid := s.newLoc(locTemp, t)
	if isStructLike(t) {
		s.copyEdge(src, mid)
	} else {
		s.loadC(src, mid)
	}
	s.storeC(tmp, mid, t)
}

// bindArgs copies arguments into parameter variables (or escapes them
// when the parameter set is unknown).
func (s *ptSolver) bindArgs(sig *types.Signature, call *ast.CallExpr, fn *types.Func, lit *ast.FuncLit) {
	params := s.paramVars(fn, lit, sig)
	np := sig.Params().Len()
	for i, a := range call.Args {
		v := s.genExpr(a)
		var pv *types.Var
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi < len(params) {
			pv = params[pi]
		}
		if pv == nil {
			s.escapeContents(v)
			continue
		}
		at := s.typeOf(a)
		if sig.Variadic() && i >= np-1 && !call.Ellipsis.IsValid() {
			// Pack into the variadic slice's element slot.
			et := elemTypeOf(pv.Type())
			if et != nil && interesting(et) {
				varg := s.variadicObj(pv)
				s.assignValue(s.fieldLoc(varg, nil), v, et)
			}
			continue
		}
		s.assignValue(s.varLoc(pv), v, at)
	}
}

// variadicObj interns the implicit slice object of a variadic
// parameter and links it into the parameter's points-to set.
func (s *ptSolver) variadicObj(pv *types.Var) int {
	p := s.varLoc(pv)
	key := ptFieldKey{p, pv}
	if id, ok := s.fieldL[key]; ok {
		return id
	}
	id := s.newLoc(locAlloc, pv.Type())
	s.fieldL[key] = id
	s.addPts(p, id)
	return id
}

// paramVars resolves the parameter variables of a declared function or
// literal.
func (s *ptSolver) paramVars(fn *types.Func, lit *ast.FuncLit, sig *types.Signature) []*types.Var {
	var fl *ast.FieldList
	var info *types.Info
	if lit != nil {
		fl = lit.Type.Params
		info = s.info
	} else if fi := s.prog.funcs[fn]; fi != nil {
		fl = fi.Decl.Type.Params
		info = fi.Pkg.Info
	}
	if fl == nil {
		return nil
	}
	var out []*types.Var
	for _, fld := range fl.List {
		if len(fld.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range fld.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// syncPkgPath reports packages whose calls never leak identity: the
// sync primitives themselves.
func syncPkgPath(path string) bool {
	return path == "sync" || path == "sync/atomic"
}

// genExternal lowers a call whose target lives outside the root set.
func (s *ptSolver) genExternal(fn *types.Func, call *ast.CallExpr) []int {
	pkg := fn.Pkg()
	if pkg != nil && syncPkgPath(pkg.Path()) {
		// sync.Once.Do invokes its argument.
		if fn.Name() == "Do" {
			if len(call.Args) == 1 {
				f := s.genExpr(call.Args[0])
				s.bindDynamic(f, &ast.CallExpr{Fun: call.Args[0]})
			}
		} else {
			for _, a := range call.Args {
				s.genExpr(a)
			}
		}
		if op := receiverOperand(call); op != nil {
			// Materialize the operand nodes so lock queries resolve,
			// without treating the call as an escape.
			if t := s.typeOf(op); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					s.genExpr(op)
				} else {
					s.addrNode(op)
				}
			}
		}
		return nil
	}
	// Unknown external: every operand escapes, results are opaque.
	if op := receiverOperand(call); op != nil {
		if t := s.typeOf(op); t != nil && interesting(t) {
			if isStructLike(t) {
				s.escapeContents(s.addrNode(op))
			} else {
				s.escapeContents(s.genExpr(op))
			}
		}
	}
	for _, a := range call.Args {
		if t := s.typeOf(a); t != nil && interesting(t) {
			s.escapeContents(s.genExpr(a))
		} else {
			s.genExpr(a)
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	var rets []int
	if sig != nil {
		for i := 0; i < sig.Results().Len(); i++ {
			r := s.newLoc(locTemp, sig.Results().At(i).Type())
			if interesting(sig.Results().At(i).Type()) {
				s.addPts(r, s.unknown)
			}
			rets = append(rets, r)
		}
	}
	return rets
}

// bindDynamic wires a call through a function value: known targets in
// the points-to set are bound statically; an unknown member degrades
// the call to an escape.
func (s *ptSolver) bindDynamic(fun int, call *ast.CallExpr) []int {
	out := s.newLoc(locTemp, nil)
	c := &ptDynCall{call: call, out: out, solver: s, info: s.info}
	loc := s.locs[fun]
	loc.dynCalls = append(loc.dynCalls, c)
	for _, l := range loc.order {
		c.apply(l)
	}
	return []int{out}
}

// ptDynCall is a pending dynamic-call constraint. It keeps the type
// info of the package holding the call site: apply runs during solving,
// when the solver's current info points at whichever package was
// generated last, and re-binding arguments walks the call's AST again.
type ptDynCall struct {
	call   *ast.CallExpr
	out    int
	solver *ptSolver
	info   *types.Info
	bound  map[int]bool
}

// apply binds one newly-discovered callee object.
func (c *ptDynCall) apply(l int) {
	if c.bound == nil {
		c.bound = make(map[int]bool)
	}
	if c.bound[l] {
		return
	}
	c.bound[l] = true
	s := c.solver
	saved := s.info
	s.info = c.info
	defer func() { s.info = saved }()
	loc := s.locs[l]
	switch {
	case loc.kind == locAlloc && loc.lit != nil:
		sig, _ := loc.typ.(*types.Signature)
		if sig != nil {
			s.bindArgs(sig, c.call, nil, loc.lit)
			for i, r := range s.litRet[loc.lit] {
				_ = i
				s.copyEdge(r, c.out)
			}
		}
	case loc.kind == locAlloc && loc.fn != nil:
		if fi := s.prog.funcs[loc.fn]; fi != nil {
			rets := s.bindStatic(fi, c.call)
			for _, r := range rets {
				s.copyEdge(r, c.out)
			}
		}
	default:
		// Unknown target: arguments escape, result opaque.
		for _, a := range c.call.Args {
			if t := s.typeOf(a); t != nil && interesting(t) {
				s.escapeContents(s.genExpr(a))
			}
		}
		s.addPts(c.out, s.unknown)
	}
}

// ---- queries ---------------------------------------------------------------

// pointsTo returns the solved points-to set of an expression's value,
// or nil when the expression was never generated (untracked type).
func (s *ptSolver) pointsTo(e ast.Expr) []int {
	n, ok := s.exprL[e]
	if !ok {
		return nil
	}
	return s.locs[n].order
}

// lvalLocs returns the locations an lvalue operand denotes — the
// identity set the lock analyzers use for mutex words.
func (s *ptSolver) lvalLocs(e ast.Expr) []int {
	if n, ok := s.addrL[e]; ok {
		return s.locs[n].order
	}
	// The operand may have been generated only as a value (plain
	// identifier of a value-typed variable).
	if n, ok := s.exprL[e]; ok {
		loc := s.locs[n]
		if loc.typ != nil && isStructLike(loc.typ) {
			return loc.order
		}
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		for info := range s.infoTables() {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if vl, ok2 := s.varL[v]; ok2 {
					return []int{vl}
				}
				return []int{s.varLoc(v)}
			}
		}
	}
	return nil
}

// infoTables iterates the fact tables of every root package.
func (s *ptSolver) infoTables() map[*types.Info]bool {
	out := make(map[*types.Info]bool)
	for _, pkg := range s.prog.Pkgs {
		if pkg.Info != nil {
			out[pkg.Info] = true
		}
	}
	return out
}

// escapedLoc reports whether the location's identity has leaked.
func (s *ptSolver) escapedLoc(l int) bool {
	return l == s.unknown || s.locs[l].escaped
}

// locString renders a location for diagnostics and goldens.
func (s *ptSolver) locString(l int) string {
	loc := s.locs[l]
	switch loc.kind {
	case locUnknown:
		return "<unknown>"
	case locVar:
		return loc.v.Name()
	case locAlloc:
		if loc.fn != nil && loc.lit == nil {
			return "func " + loc.fn.Name()
		}
		if loc.lit != nil {
			return fmt.Sprintf("funclit@%d", loc.pos.Line)
		}
		return fmt.Sprintf("alloc@%d", loc.pos.Line)
	case locField:
		name := "[]"
		if loc.field != nil {
			name = loc.field.Name()
		}
		return s.locString(loc.base) + "." + name
	case locRet:
		if loc.fn != nil {
			return fmt.Sprintf("ret%d(%s)", loc.ret, loc.fn.Name())
		}
		return fmt.Sprintf("ret%d(lit)", loc.ret)
	}
	return fmt.Sprintf("t%d", l)
}
