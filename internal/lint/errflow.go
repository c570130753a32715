package lint

import (
	"go/ast"
	"go/types"
)

// ErrFlow enforces the query-path error contract (DESIGN.md §15): every
// error produced on the oracle seam — oracle.Interface's Query/QueryBatch,
// the planner's probe methods, validation's vote batches, and the core
// entry points that wrap them — must be checked, propagated, or explicitly suppressed on
// every path. A dropped oracle error silently converts a failed probe into
// a wrong hyperplane sign, which Algorithm 2 then bakes into the recovered
// key, so the analyzer treats three shapes as findings: the call used as a
// bare statement (the error never lands anywhere), the error assigned to _
// (landed and discarded), and an error variable that a path can carry to a
// return or the function end without ever reading it — including the
// overwrite case, where a second assignment clobbers an unchecked error.
//
// The analysis runs on the shared CFG (cfg.go): binding an error generates
// an obligation, any read of the variable (a nil check, a return, an
// argument position, a wrap) discharges it, and the may-reach solver flags
// exits an unread obligation survives to. A read inside a defer discharges
// globally, mirroring poolpair's deferred-release rule. Only variables
// declared in the function under analysis are tracked: an error captured
// from an enclosing scope is the outer function's obligation.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "oracle-seam errors must be checked or propagated on all paths",
	Run:  runErrFlow,
}

// errSources maps functions whose error result carries oracle-seam failures
// (package path -> names). Interface methods resolve to the declaring
// interface's package, so calls through oracle.Interface match here.
var errSources = map[string]map[string]bool{
	"dnnlock/internal/oracle": {"Query": true, "QueryBatch": true},
	"dnnlock/internal/core": {
		"query": true, "multi": true,
		"queryRetry": true, "queryBatchRetry": true,
		"kinkVotes": true, "sendVotes": true,
		"parallelForErr": true,
		"Run":            true, "Monolithic": true, "Resume": true, "runFrom": true,
		"runSite": true, "relearnBySite": true,
		"keyBitInference": true, "keyBitInferenceSpanned": true, "probeBit": true,
		"learningAttack": true, "errorCorrection": true,
	},
	"dnnlock/internal/harness": {"RunTable1": true, "RunRobustness": true},
}

func runErrFlow(p *Pass) {
	for _, f := range p.Unit.Files {
		for _, fn := range functionNodes(f) {
			p.errFlowRegion(fn)
		}
	}
}

// funcNode is one function under analysis: the declaration or literal node
// (whose extent bounds "declared here", so named results count as local)
// and its body.
type funcNode struct {
	node ast.Node
	typ  *ast.FuncType
	body *ast.BlockStmt
}

// functionNodes returns every function in the file with a body.
func functionNodes(f *ast.File) []funcNode {
	var out []funcNode
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, funcNode{node: v, typ: v.Type, body: v.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcNode{node: v, typ: v.Type, body: v.Body})
		}
		return true
	})
	return out
}

// errBind is one tracked error obligation: the source call and the variable
// its error result landed in.
type errBind struct {
	call *ast.CallExpr
	name string // display name, e.g. "oracle.Query"
	obj  types.Object
	node ast.Node // the binding statement (CFG gen site)
}

func (p *Pass) errFlowRegion(fn funcNode) {
	binds := p.collectErrBinds(fn)
	if len(binds) == 0 {
		return
	}
	g := p.cfgOf(fn.body)

	// A read inside any defer (error inspected in a cleanup closure)
	// discharges the obligation on every exit, like a deferred Put.
	deferRead := make([]bool, len(binds))
	for i, b := range binds {
		deferRead[i] = p.deferredErrRead(fn.body, b.obj)
	}

	prob := &FlowProblem{CFG: g, Facts: len(binds), May: true,
		Gen: map[ast.Node][]int{}, Kill: map[ast.Node][]int{}}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for i, b := range binds {
				if p.nodeReadsErr(n, fn, b.obj) {
					prob.Kill[n] = append(prob.Kill[n], i)
				}
			}
		}
	}
	for i, b := range binds {
		blk, idx := g.FindNode(b.call.Pos())
		if blk == nil {
			continue
		}
		prob.Gen[blk.Nodes[idx]] = append(prob.Gen[blk.Nodes[idx]], i)
	}
	res := prob.Solve()

	// Overwrite: a second write to the same variable while an earlier
	// obligation is still outstanding loses that error unchecked.
	for _, blk := range g.Blocks {
		if !blk.Reachable {
			continue
		}
		for idx, n := range blk.Nodes {
			for i, b := range binds {
				if n == b.node {
					continue
				}
				if !p.nodeWritesObj(n, b.obj) || p.nodeReadsErr(n, fn, b.obj) {
					continue
				}
				if res.Before(blk, idx).Has(i) {
					p.Report(n.Pos(), "error from %s (line %d) is overwritten before it is checked",
						b.name, p.Fset.Position(b.call.Pos()).Line)
				}
			}
		}
	}

	for i, b := range binds {
		if deferRead[i] {
			continue
		}
		p.reportErrPaths(g, res, prob, i, b)
	}
}

// reportErrPaths flags every reachable exit an unread obligation survives
// to: a return statement that does not itself read the variable, or the
// fall-through end of the function.
func (p *Pass) reportErrPaths(g *CFG, res *FlowResult, prob *FlowProblem, i int, b *errBind) {
	line := p.Fset.Position(b.call.Pos()).Line
	for _, blk := range g.Blocks {
		if !blk.Reachable {
			continue
		}
		for idx, n := range blk.Nodes {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				continue
			}
			if !res.Before(blk, idx).Has(i) || killsFact(prob.Kill[n], i) {
				continue
			}
			p.Report(ret.Pos(), "error from %s (line %d) is not checked on this return path", b.name, line)
		}
	}
	if g.FallsOff != nil && g.FallsOff.Reachable && res.Out[g.FallsOff].Has(i) {
		p.Report(b.call.Pos(), "error from %s is never checked before the function ends", b.name)
	}
}

// collectErrBinds finds err-source calls whose statements live directly in
// this region, reporting immediately dropped errors and tracking bound
// ones. Only bindings to variables declared inside this function (its
// signature counts, so named results are local) become obligations.
func (p *Pass) collectErrBinds(fn funcNode) []*errBind {
	var out []*errBind
	walkRegion(fn.body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, hit := p.errSourceCall(call); hit {
					p.ReportFix(call.Pos(), p.wrapErrFix(fn, st, call),
						"error result of %s is discarded: check it or propagate it", name)
				}
			}
		case *ast.AssignStmt:
			for ri, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, hit := p.errSourceCall(call)
				if !hit {
					continue
				}
				targets := assignTargets(st, ri, len(st.Rhs))
				for _, lhs := range targets {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if !p.isErrorExpr(id) {
						continue
					}
					if id.Name == "_" {
						p.Report(call.Pos(), "error result of %s is assigned to _: check it or propagate it", name)
						continue
					}
					obj := p.Unit.Info.Defs[id]
					if obj == nil {
						obj = p.Unit.Info.Uses[id]
					}
					if obj == nil || obj.Pos() < fn.node.Pos() || obj.Pos() > fn.node.End() {
						continue // captured from an enclosing function: its obligation
					}
					out = append(out, &errBind{call: call, name: name, obj: obj, node: st})
				}
			}
		}
	})
	return out
}

// assignTargets returns the LHS expressions that receive the error result
// of RHS index ri: the last element for a tuple assignment (the tracked
// sources all return the error last), the positional element for a
// parallel assignment.
func assignTargets(st *ast.AssignStmt, ri, nrhs int) []ast.Expr {
	if nrhs == 1 && len(st.Lhs) > 1 {
		return st.Lhs[len(st.Lhs)-1:]
	}
	if ri < len(st.Lhs) {
		return st.Lhs[ri : ri+1]
	}
	return nil
}

// isErrorExpr reports whether the identifier's type is error. The blank
// identifier is resolved through the assignment's tuple type, which go/types
// records in Defs with a nil object — fall back to matching the name when
// type info is absent.
func (p *Pass) isErrorExpr(id *ast.Ident) bool {
	if id.Name == "_" {
		return true // callers pair this with tuple position of an err source
	}
	obj := p.Unit.Info.Defs[id]
	if obj == nil {
		obj = p.Unit.Info.Uses[id]
	}
	if obj == nil || obj.Type() == nil {
		return false
	}
	return types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}

// errSourceCall reports whether call targets a tracked error source.
func (p *Pass) errSourceCall(call *ast.CallExpr) (string, bool) {
	return p.callIn(call, errSources)
}

// nodeReadsErr reports whether one CFG element reads the error variable:
// any mention outside a plain-identifier assignment target counts (a nil
// check, an argument, a return value, a wrap). The scan descends into
// nested closures — a goroutine or deferred closure inspecting the error
// discharges at the statement creating it. A bare return reads every named
// result implicitly.
func (p *Pass) nodeReadsErr(n ast.Node, fn funcNode, obj types.Object) bool {
	if obj == nil {
		return false
	}
	if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 0 && namedResult(fn, obj) {
		return true
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if as, ok := c.(*ast.AssignStmt); ok {
			// Visit RHS and non-ident LHS (index/selector targets read their
			// base); skip plain ident targets, which are pure writes.
			for _, e := range as.Rhs {
				if p.exprMentionsObj(e, obj) {
					found = true
					return false
				}
			}
			for _, lhs := range as.Lhs {
				if _, plain := lhs.(*ast.Ident); !plain && p.exprMentionsObj(lhs, obj) {
					found = true
					return false
				}
			}
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			o := p.Unit.Info.Uses[id]
			if o == nil {
				o = p.Unit.Info.Defs[id]
			}
			if o == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// nodeWritesObj reports whether the element assigns to obj through a plain
// identifier target.
func (p *Pass) nodeWritesObj(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		as, ok := c.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			o := p.Unit.Info.Uses[id]
			if o == nil {
				o = p.Unit.Info.Defs[id]
			}
			if o == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func (p *Pass) exprMentionsObj(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			o := p.Unit.Info.Uses[id]
			if o == nil {
				o = p.Unit.Info.Defs[id]
			}
			if o == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// namedResult reports whether obj is one of the function's named results.
func namedResult(fn funcNode, obj types.Object) bool {
	if fn.typ.Results == nil {
		return false
	}
	for _, fld := range fn.typ.Results.List {
		for _, name := range fld.Names {
			if name.Pos() == obj.Pos() {
				return true
			}
		}
	}
	return false
}

// deferredErrRead reports whether any defer in the region reads obj.
func (p *Pass) deferredErrRead(body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if p.exprMentionsObj(d.Call, obj) {
			found = true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					o := p.Unit.Info.Uses[id]
					if o == obj {
						found = true
					}
				}
				return !found
			})
		}
		return true
	})
	return found
}

// wrapErrFix offers the dropped-error rewrite when it is unconditionally
// safe: the dropped call returns exactly one value (the error) and the
// enclosing function's results are exactly one error, so
// `if err := f(); err != nil { return err }` type-checks without inventing
// zero values. Otherwise no fix is attached and the finding must be fixed
// by hand.
func (p *Pass) wrapErrFix(fn funcNode, st *ast.ExprStmt, call *ast.CallExpr) *SuggestedFix {
	tv, ok := p.Unit.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return nil // multi-result call: the wrap would drop siblings
	}
	if fn.typ.Results == nil || len(fn.typ.Results.List) != 1 || len(fn.typ.Results.List[0].Names) > 1 {
		return nil
	}
	rid, ok := fn.typ.Results.List[0].Type.(*ast.Ident)
	if !ok || rid.Name != "error" {
		return nil
	}
	return &SuggestedFix{
		Message: "wrap the call and propagate its error",
		Edits: []TextEdit{
			{Pos: st.Pos(), End: st.Pos(), NewText: "if err := "},
			{Pos: st.End(), End: st.End(), NewText: "; err != nil {\n\treturn err\n}"},
		},
	}
}
