package lint

import (
	"go/ast"
	"go/types"
)

// SpanPair enforces the span lifecycle contract (DESIGN.md §15): every
// span opened through obs — Tracer.Start, Span.Child, and core's startRoot
// wrapper — must reach End on every path out of the opening function, or
// explicitly leave it (returned, stored into a longer-lived structure, sent
// on a channel). An unended span never exports its record, silently
// truncates the trace tree, and — for proc-labelled phase spans — drops its
// duration and query count from the Figure 3 table `dnnlock trace` rolls up
// for its anchor.
//
// The analysis mirrors poolpair on the shared CFG: opening a span
// generates an obligation, sp.End(...) discharges it, a deferred End
// discharges every exit (End is idempotent, so a deferred End alongside an
// explicit one is safe), and escapes transfer the obligation to the new
// owner. Passing the span as a plain call argument is NOT a discharge —
// helpers decorate spans, they do not adopt them. Findings carry an
// automatic fix: insert `defer sp.End()` right after the opening
// statement, which End's idempotence makes unconditionally safe.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "obs spans must be ended on all paths (or explicitly handed off)",
	Run:  runSpanPair,
}

// spanSources maps span-opening functions (package path -> names).
var spanSources = map[string]map[string]bool{
	"dnnlock/internal/obs":  {"Start": true, "Child": true},
	"dnnlock/internal/core": {"startRoot": true},
}

func runSpanPair(p *Pass) {
	for _, f := range p.Unit.Files {
		for _, fn := range functionNodes(f) {
			p.spanRegion(fn)
		}
	}
}

// spanBind is one tracked span obligation.
type spanBind struct {
	call *ast.CallExpr
	name string
	obj  types.Object
	objs []types.Object // obj plus plain aliases
	node ast.Node       // binding statement
}

func (p *Pass) spanRegion(fn funcNode) {
	binds := p.collectSpanBinds(fn)
	if len(binds) == 0 {
		return
	}
	g := p.cfgOf(fn.body)

	deferred := make([]bool, len(binds))
	for i, b := range binds {
		p.spanAliases(fn.body, b)
		deferred[i] = p.deferredEnd(fn.body, b)
	}

	prob := &FlowProblem{CFG: g, Facts: len(binds), May: true,
		Gen: map[ast.Node][]int{}, Kill: map[ast.Node][]int{}}
	hasEvent := make([]bool, len(binds))
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for i, b := range binds {
				if p.spanDischarges(n, fn.body, b) {
					prob.Kill[n] = append(prob.Kill[n], i)
					hasEvent[i] = true
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

	for i, b := range binds {
		if deferred[i] {
			continue
		}
		fix := p.deferEndFix(b)
		if !hasEvent[i] {
			p.ReportFix(b.call.Pos(), fix,
				"span from %s is never ended: add defer %s.End()", b.name, spanVarName(b))
			continue
		}
		p.reportSpanPaths(g, res, prob, i, b, fix)
	}
}

// reportSpanPaths flags every reachable exit an open span survives to.
// Only the first leaking exit carries the fix: the single inserted defer
// covers every path, and duplicate edits at the same offset would collide.
func (p *Pass) reportSpanPaths(g *CFG, res *FlowResult, prob *FlowProblem, i int, b *spanBind, fix *SuggestedFix) {
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
			p.ReportFix(ret.Pos(), fix,
				"span from %s (line %d) is not ended on this return path: add defer %s.End() at the open site",
				b.name, line, spanVarName(b))
			fix = nil
		}
	}
	if g.FallsOff != nil && g.FallsOff.Reachable && res.Out[g.FallsOff].Has(i) {
		p.ReportFix(b.call.Pos(), fix,
			"span from %s is not ended on the fall-through path to the end of the function", b.name)
	}
}

// collectSpanBinds finds span-opening calls bound directly in this region.
func (p *Pass) collectSpanBinds(fn funcNode) []*spanBind {
	var out []*spanBind
	walkRegion(fn.body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, hit := p.spanSourceCall(call); hit {
					p.Report(call.Pos(), "span from %s is discarded: it can never be ended", name)
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return // span sources are single-result; tuple shapes hold none
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, hit := p.spanSourceCall(call)
				if !hit {
					continue
				}
				switch lhs := st.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						p.Report(call.Pos(), "span from %s is assigned to _: it can never be ended", name)
						continue
					}
					obj := p.Unit.Info.Defs[lhs]
					if obj == nil {
						obj = p.Unit.Info.Uses[lhs]
					}
					if obj == nil || obj.Pos() < fn.node.Pos() || obj.Pos() > fn.node.End() {
						continue
					}
					out = append(out, &spanBind{call: call, name: name, obj: obj,
						objs: []types.Object{obj}, node: st})
				default:
					// Stored straight into a field: the structure now owns the
					// span (startRoot's a.root = sp is the canonical case).
				}
			}
		}
	})
	return out
}

func (p *Pass) spanSourceCall(call *ast.CallExpr) (string, bool) {
	return p.callIn(call, spanSources)
}

// spanDischarges reports whether one CFG element ends or hands off the
// span: an End call through any alias, a return carrying the span, a send,
// or a store into something longer-lived. Plain argument passing does not
// discharge. The scan descends into nested closures, so an End inside a
// worker body discharges at the statement creating the closure.
func (p *Pass) spanDischarges(n ast.Node, body *ast.BlockStmt, b *spanBind) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch v := c.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok && p.isTracked(id, b.objs) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if p.escapingExpr(res, b.objs) {
					found = true
					break
				}
			}
		case *ast.SendStmt:
			if p.escapingExpr(v.Value, b.objs) {
				found = true
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || !p.isTracked(id, b.objs) || i >= len(v.Lhs) {
					continue
				}
				if !p.localLHS(v.Lhs[i], body) {
					found = true // ownership handed to the structure
				}
			}
		}
		return !found
	})
	return found
}

// deferredEnd reports whether any defer in the region ends the span.
func (p *Pass) deferredEnd(body *ast.BlockStmt, b *spanBind) bool {
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
			if call, ok := c.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
					if id, ok := sel.X.(*ast.Ident); ok && p.isTracked(id, b.objs) {
						found = true
					}
				}
			}
			return !found
		})
		return true
	})
	return found
}

// spanAliases adds plain local aliases (s2 := sp) so Ends through the alias
// count.
func (p *Pass) spanAliases(body *ast.BlockStmt, b *spanBind) {
	acq := &acquisition{call: b.call, name: b.name, obj: b.obj, objs: b.objs}
	aliasClosure(p, body, acq)
	b.objs = acq.objs
}

// deferEndFix builds the `defer sp.End()` insertion after the binding
// statement. Only offered when the span landed in a plain identifier.
func (p *Pass) deferEndFix(b *spanBind) *SuggestedFix {
	name := spanVarName(b)
	if name == "" {
		return nil
	}
	return &SuggestedFix{
		Message: "defer ending the span at the open site",
		Edits:   []TextEdit{{Pos: b.node.End(), End: b.node.End(), NewText: "\ndefer " + name + ".End()"}},
	}
}

func spanVarName(b *spanBind) string {
	if b.obj == nil {
		return ""
	}
	return b.obj.Name()
}
