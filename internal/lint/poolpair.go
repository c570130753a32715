package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair enforces the workspace-pool ownership contract (DESIGN.md §8):
// every matrix or vector obtained from the pool — tensor.GetMatrix /
// GetMatrixZero / GetVec, the pool-recycled results of
// oracle.QueryBatch, dataset.UniformInputs, nn.Slice.PrefixForward and
// nn's single-example walker (forwardChain), and the Jacobians of
// nn.Network.PreActJacobian / ReluInJacobian / OutputJacobian — must be handed back with tensor.PutMatrix / PutVec on
// every path through the acquiring function, or explicitly leave the
// function: returned to the caller, or stored into a longer-lived
// structure on a line annotated //lint:transfer.
//
// The forward-mode Jacobian chain hands its tangent from layer to layer
// (nn.Layer's JVP contract). A tangent passed to a JVP call is consumed by
// it, the tangent JVP returns is a new acquisition, and inside a JVP method
// the tangent parameter is an obligation from the first statement: the
// layer must release it or return it on every path.
//
// The analysis runs on the shared control-flow graph (cfg.go): the
// acquisition generates an obligation, releases and escapes discharge it,
// and the may-reach solver reports any return or fall-through exit an
// outstanding obligation can reach. A deferred Put still covers every exit
// (it runs whichever way the function leaves), which keeps the repo's
// conditional ownership idiom — defer inside a branch that owns the buffer
// — accepted without path enumeration.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled tensor workspaces must be released or explicitly transferred on all paths",
	Run:  runPoolPair,
}

// getFuncs maps pool-acquiring functions (package path -> name -> index of
// the pooled buffer among the call's results). Method names are matched by
// the defining package of the method object, so aliased imports, embedded
// forwarding and interface calls resolve correctly.
var getFuncs = map[string]map[string]int{
	"dnnlock/internal/tensor":  {"GetMatrix": 0, "GetMatrixZero": 0, "GetVec": 0},
	"dnnlock/internal/oracle":  {"QueryBatch": 0},
	"dnnlock/internal/dataset": {"UniformInputs": 0},
	"dnnlock/internal/nn": {"PrefixForward": 0, "forwardChain": 0,
		"PreActJacobian": 1, "ReluInJacobian": 1, "OutputJacobian": 1, "JVP": 1},
}

var putFuncs = map[string]map[string]bool{
	"dnnlock/internal/tensor": {"PutMatrix": true, "PutVec": true},
}

// consumeFuncs maps functions that take over one pooled argument (package
// path -> name -> argument index): passing a buffer there discharges the
// caller's obligation, and a method of that name must itself release or
// return the argument.
var consumeFuncs = map[string]map[string]int{
	"dnnlock/internal/nn": {"JVP": 1},
}

func runPoolPair(p *Pass) {
	for _, f := range p.Unit.Files {
		consumed := p.consumedParams(f)
		for _, region := range functionRegions(f) {
			analyzeRegion(p, region, consumed[region])
		}
	}
}

// consumedParams returns, per method body, the obligation of a parameter
// the method consumes (see consumeFuncs).
func (p *Pass) consumedParams(f *ast.File) map[*ast.BlockStmt]*acquisition {
	idxs := consumeFuncs[p.Unit.Pkg.Path()]
	out := map[*ast.BlockStmt]*acquisition{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil {
			continue
		}
		idx, ok := idxs[fd.Name.Name]
		if !ok {
			continue
		}
		var params []*ast.Ident // nil for an unnamed parameter
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				params = append(params, nil)
			}
			params = append(params, field.Names...)
		}
		if idx >= len(params) {
			continue
		}
		id := params[idx]
		if id == nil || id.Name == "_" {
			p.Report(fd.Name.Pos(), "%s argument %d is never released: %s consumes it, so name it and release or return it",
				fd.Name.Name, idx, fd.Name.Name)
			continue
		}
		obj := p.Unit.Info.Defs[id]
		if obj == nil {
			continue
		}
		name := fd.Name.Name + " argument " + id.Name
		out[fd.Body] = &acquisition{param: id, name: name, obj: obj, objs: []types.Object{obj}}
	}
	return out
}

// functionRegions returns every function body in the file: declarations and
// literals, each analyzed independently.
func functionRegions(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, v.Body)
			}
		case *ast.FuncLit:
			out = append(out, v.Body)
		}
		return true
	})
	return out
}

// acquisition is one tracked pool Get inside a region, or a consumed
// parameter (param set, call nil) whose obligation holds from entry.
type acquisition struct {
	call  *ast.CallExpr
	param *ast.Ident
	name  string         // display name, e.g. "tensor.GetMatrix" or "JVP argument j"
	obj   types.Object   // variable holding the result; nil if discarded
	objs  []types.Object // obj plus aliases
}

// pos is where the obligation starts.
func (a *acquisition) pos() token.Pos {
	if a.call == nil {
		return a.param.Pos()
	}
	return a.call.Pos()
}

// what names the tracked buffer in diagnostics.
func (a *acquisition) what() string {
	if a.call == nil {
		return a.name
	}
	return "result of " + a.name
}

func analyzeRegion(p *Pass, body *ast.BlockStmt, param *acquisition) {
	acqs := collectAcquisitions(p, body)
	if param != nil {
		acqs = append(acqs, param)
	}
	if len(acqs) == 0 {
		return
	}
	g := p.cfgOf(body)
	deferred := make([]bool, len(acqs))
	for i, acq := range acqs {
		aliasClosure(p, body, acq)
		deferred[i] = p.deferredRelease(body, acq)
	}

	// Obligation i is outstanding from its acquisition until a node that
	// releases or escapes the buffer. Event collection also carries the
	// analyzer's store reports (a store into a longer-lived structure must
	// be //lint:transfer-annotated whether or not a defer later covers it).
	prob := &FlowProblem{CFG: g, Facts: len(acqs), May: true,
		Gen: map[ast.Node][]int{}, Kill: map[ast.Node][]int{}}
	hasEvent := make([]bool, len(acqs))
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for i, acq := range acqs {
				if p.nodeDischarges(n, body, acq) {
					prob.Kill[n] = append(prob.Kill[n], i)
					hasEvent[i] = true
				}
			}
		}
	}
	for i, acq := range acqs {
		if acq.call == nil {
			prob.Entry = append(prob.Entry, i)
			continue
		}
		blk, idx := g.FindNode(acq.call.Pos())
		if blk == nil {
			continue
		}
		n := blk.Nodes[idx]
		prob.Gen[n] = append(prob.Gen[n], i)
	}
	res := prob.Solve()

	for i, acq := range acqs {
		if deferred[i] {
			continue // a deferred Put covers every exit
		}
		if !hasEvent[i] {
			p.Report(acq.pos(), "%s is never released: missing tensor.PutMatrix/PutVec, return, or //lint:transfer", acq.what())
			continue
		}
		p.reportLeakPaths(g, res, prob, i, acq)
	}
}

// reportLeakPaths reports every reachable exit — each return statement and
// the fall-through edge — that the outstanding obligation can reach.
func (p *Pass) reportLeakPaths(g *CFG, res *FlowResult, prob *FlowProblem, i int, acq *acquisition) {
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
			p.Report(ret.Pos(), "%s acquired at line %d may leak on this return path: no release or transfer before it",
				acq.name, p.Fset.Position(acq.pos()).Line)
		}
	}
	if g.FallsOff != nil && g.FallsOff.Reachable && res.Out[g.FallsOff].Has(i) {
		p.Report(acq.pos(), "%s is not released on the fall-through path to the end of the function", acq.what())
	}
}

func killsFact(kills []int, i int) bool {
	for _, k := range kills {
		if k == i {
			return true
		}
	}
	return false
}

// nodeDischarges reports whether one CFG element releases or escapes the
// tracked buffer. The scan descends into nested function literals: a
// closure that releases an outer buffer (a deferred cleanup, a worker body)
// discharges the obligation at the statement that creates the closure.
// Stores into longer-lived structures are escapes too, but must carry
// //lint:transfer — the report fires here, at collection time.
func (p *Pass) nodeDischarges(n ast.Node, body *ast.BlockStmt, acq *acquisition) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch v := c.(type) {
		case *ast.CallExpr:
			if p.putLike(v) && p.mentions(v.Args, acq.objs) {
				found = true
			} else if i, ok := p.consumedArg(v); ok && i < len(v.Args) && p.escapingExpr(v.Args[i], acq.objs) {
				found = true // handed over: the callee releases or returns it
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if p.escapingExpr(res, acq.objs) {
					found = true
					break
				}
			}
		case *ast.SendStmt:
			if p.escapingExpr(v.Value, acq.objs) {
				p.TransferAnnotated(v.Pos()) // mark a covering //lint:transfer used
				found = true
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || !p.isTracked(id, acq.objs) || i >= len(v.Lhs) {
					continue
				}
				if !p.localLHS(v.Lhs[i], body) {
					if !p.TransferAnnotated(v.Pos()) {
						p.Report(v.Pos(), "%s obtained from %s is stored outside the function without //lint:transfer",
							exprString(v.Rhs[i]), acq.name)
					}
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// deferredRelease reports whether any defer in the region (including defers
// declared inside nested closures) releases the tracked buffer; a deferred
// Put runs whichever way the function exits, so it covers every path.
func (p *Pass) deferredRelease(body *ast.BlockStmt, acq *acquisition) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && p.putLike(call) && p.mentions(call.Args, acq.objs) {
				found = true
			}
			return !found
		})
		return true
	})
	return found
}

// collectAcquisitions finds pool Gets whose statement lives directly in this
// region (not in a nested function literal, which forms its own region).
func collectAcquisitions(p *Pass, body *ast.BlockStmt) []*acquisition {
	var out []*acquisition
	walkRegion(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, _, hit := p.getLike(call); hit {
					p.Report(call.Pos(), "result of %s is discarded: the pooled buffer can never be released", name)
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
				// Tuple acquisition: the pooled buffer is the result getFuncs
				// names — first in buf, err := oracle.QueryBatch(x), second
				// in u, jac := net.PreActJacobian(x, s). The other results
				// are not tracked. On error the buffer is nil, but the
				// releases are nil-safe, so the ownership contract is the
				// same on every path.
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if name, res, hit := p.getLike(call); hit && res < len(st.Lhs) {
						out = p.trackAssigned(out, st, call, name, st.Lhs[res])
					}
				}
				break
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, _, hit := p.getLike(call)
				if !hit {
					continue
				}
				if len(st.Lhs) != len(st.Rhs) {
					continue // other tuple shapes hold no pooled buffer
				}
				out = p.trackAssigned(out, st, call, name, st.Lhs[i])
			}
		case *ast.ValueSpec:
			for i, v := range st.Values {
				call, ok := v.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, res, hit := p.getLike(call)
				if !hit {
					continue
				}
				if len(st.Values) == 1 && len(st.Names) > 1 {
					i = res // var u, jac = net.PreActJacobian(x, s)
				}
				if i >= len(st.Names) {
					continue
				}
				if obj := p.Unit.Info.Defs[st.Names[i]]; obj != nil {
					out = append(out, &acquisition{call: call, name: name, obj: obj, objs: []types.Object{obj}})
				}
			}
		}
	})
	return out
}

// trackAssigned records the acquisition held by one assignment target, or
// reports targets that can never release the buffer (blank identifier,
// direct store into a longer-lived structure without //lint:transfer).
func (p *Pass) trackAssigned(out []*acquisition, st *ast.AssignStmt, call *ast.CallExpr, name string, target ast.Expr) []*acquisition {
	switch lhs := target.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			p.Report(call.Pos(), "result of %s is assigned to _: the pooled buffer can never be released", name)
			return out
		}
		obj := p.Unit.Info.Defs[lhs]
		if obj == nil {
			obj = p.Unit.Info.Uses[lhs]
		}
		if obj != nil {
			out = append(out, &acquisition{call: call, name: name, obj: obj, objs: []types.Object{obj}})
		}
	default:
		// Stored straight into a field/element: an ownership handoff, which
		// must be declared.
		if !p.TransferAnnotated(st.Pos()) {
			p.Report(call.Pos(), "result of %s is stored outside the function without //lint:transfer", name)
		}
	}
	return out
}

// aliasClosure adds plain local aliases (w := v) of the tracked variable so
// releases through the alias count.
func aliasClosure(p *Pass, body *ast.BlockStmt, acq *acquisition) {
	for changed := true; changed; {
		changed = false
		walkRegionAll(body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i, rhs := range as.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || !p.isTracked(id, acq.objs) {
					continue
				}
				lid, ok := as.Lhs[i].(*ast.Ident)
				if !ok || lid.Name == "_" {
					continue
				}
				obj := p.Unit.Info.Defs[lid]
				if obj == nil {
					obj = p.Unit.Info.Uses[lid]
				}
				if obj == nil {
					continue
				}
				found := false
				for _, o := range acq.objs {
					if o == obj {
						found = true
						break
					}
				}
				if !found {
					acq.objs = append(acq.objs, obj)
					changed = true
				}
			}
		})
	}
}

// getLike reports whether call is a pool acquisition, returning its display
// name and the index of the pooled result.
func (p *Pass) getLike(call *ast.CallExpr) (string, int, bool) {
	return p.callIndex(call, getFuncs)
}

func (p *Pass) putLike(call *ast.CallExpr) bool {
	_, ok := p.callIn(call, putFuncs)
	return ok
}

// consumedArg reports whether call takes over one pooled argument, and
// which.
func (p *Pass) consumedArg(call *ast.CallExpr) (int, bool) {
	_, i, ok := p.callIndex(call, consumeFuncs)
	return i, ok
}

func (p *Pass) callIn(call *ast.CallExpr, set map[string]map[string]bool) (string, bool) {
	fn := p.callee(call)
	if fn == nil || !set[fn.Pkg().Path()][fn.Name()] {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// callIndex is callIn for sets that record an index per function.
func (p *Pass) callIndex(call *ast.CallExpr, set map[string]map[string]int) (string, int, bool) {
	fn := p.callee(call)
	if fn == nil {
		return "", 0, false
	}
	idx, ok := set[fn.Pkg().Path()][fn.Name()]
	if !ok {
		return "", 0, false
	}
	return fn.Pkg().Name() + "." + fn.Name(), idx, true
}

// callee resolves the function or method a call invokes, or nil.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Unit.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// isTracked reports whether the identifier resolves to one of the tracked
// objects.
func (p *Pass) isTracked(id *ast.Ident, objs []types.Object) bool {
	obj := p.Unit.Info.Uses[id]
	if obj == nil {
		obj = p.Unit.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// mentions reports whether any argument expression references a tracked
// object (including inside nested expressions, e.g. a slice or call).
func (p *Pass) mentions(args []ast.Expr, objs []types.Object) bool {
	found := false
	for _, e := range args {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.isTracked(id, objs) {
				found = true
			}
			return !found
		})
	}
	return found
}

// escapingExpr reports whether the expression hands the tracked *buffer*
// itself onward: the bare identifier, or the identifier wrapped in a
// composite literal, key-value pair, or address-of. Derived values
// (m.Rows, v[i], len(v), wrap(m)) do not transfer ownership — a function
// returning those still owes the pool a Put (or an explicit annotation).
func (p *Pass) escapingExpr(e ast.Expr, objs []types.Object) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return p.escapingExpr(v.X, objs)
	case *ast.Ident:
		return p.isTracked(v, objs)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if p.escapingExpr(elt, objs) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		return p.escapingExpr(v.Value, objs)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return p.escapingExpr(v.X, objs)
		}
	}
	return false
}

// localLHS reports whether the assignment target is a plain local variable
// of this region. Field selectors, index expressions, dereferences, and
// identifiers captured from an enclosing function all make the value
// outlive the region.
func (p *Pass) localLHS(lhs ast.Expr, body *ast.BlockStmt) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.Unit.Info.Defs[id]
	if obj == nil {
		obj = p.Unit.Info.Uses[id]
	}
	if obj == nil {
		return true // unresolved: assume local rather than guess an escape
	}
	return body.Pos() <= obj.Pos() && obj.Pos() <= body.End()
}

// walkRegion visits every node in the region, skipping nested function
// literals.
func walkRegion(body *ast.BlockStmt, fn func(ast.Node)) {
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		fn(n)
		walkChildren(n, visit)
	}
	for _, st := range body.List {
		visit(st)
	}
}

// walkRegionAll is walkRegion including nested function literals.
func walkRegionAll(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != nil {
			fn(n)
		}
		return true
	})
}

// walkChildren invokes visit on each direct child node of n.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "pooled value"
}
