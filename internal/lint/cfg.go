package lint

import (
	"go/ast"
	"go/token"
)

// cfg.go — a control-flow graph over go/ast function bodies plus a small
// forward dataflow solver. This is the flow layer the path-sensitive
// analyzers (poolpair, errflow, spanpair) share: each builds per-node
// gen/kill sets over the statement elements of a CFG and asks the solver
// which facts can reach which program points.
//
// A Block holds the statements (and controlling expressions: if/for
// conditions, switch tags, case expressions, range operands) that execute
// straight-line, in order. Edges follow Go's control flow: if/else arms,
// loop back-edges and exits, switch/type-switch/select dispatch,
// fallthrough, labeled break/continue, and goto. return edges to Exit;
// panic, os.Exit, runtime.Goexit, log.Fatal*, and testing's
// Fatal/FailNow/Skip family terminate a block with no successors (the
// function does not resume, so no obligation survives them). Falling off
// the closing brace is a distinguished edge (FallsOff) so analyzers can
// report "leaks on the fall-through path" separately from "leaks on this
// return".
//
// The builder is purely syntactic: it needs no type information, matches
// terminating calls by name, and never fails — unreachable statements land
// in blocks with Reachable=false rather than being dropped, so analyzers
// still see every node.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// FallsOff is the block whose edge to Exit represents control flowing
	// off the closing brace; nil when every path returns, panics, or loops
	// forever.
	FallsOff *Block
	// Defers lists every defer statement of the region in source order
	// (nested function literals excluded — they are their own regions).
	Defers []*ast.DeferStmt
}

// Block is one basic block: nodes execute in order, then control moves to
// one of Succs.
type Block struct {
	Index     int
	Nodes     []ast.Node
	Succs     []*Block
	Preds     []*Block
	Reachable bool
}

// BuildCFG constructs the control-flow graph of one function body. Nested
// function literals are not traversed: each is its own region with its own
// CFG.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{cfg: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.scanLabels(body)
	b.cur = g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		g.FallsOff = b.cur
		b.edge(b.cur, g.Exit)
	}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	markReachable(g)
	return g
}

// FindNode locates the block and element index holding the innermost
// element whose source range covers pos. Returns (nil, -1) when no element
// covers it (e.g. a position inside a nested function literal).
func (g *CFG) FindNode(pos token.Pos) (*Block, int) {
	var bestB *Block
	bestI := -1
	var bestSpan token.Pos
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				span := n.End() - n.Pos()
				if bestB == nil || span < bestSpan {
					bestB, bestI, bestSpan = blk, i, span
				}
			}
		}
	}
	return bestB, bestI
}

type cfgTarget struct {
	label string
	brk   *Block // break target
	cont  *Block // continue target; nil for switch/select
}

type cfgBuilder struct {
	cfg          *CFG
	cur          *Block // nil after a terminator until the next statement
	targets      []cfgTarget
	labels       map[string]*Block
	fallTargets  []*Block // fallthrough destination stack (switch clauses)
	unreachCount int
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// emit appends a node to the current block, opening an unreachable block if
// the previous statement terminated control flow.
func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // dead code after return/break/panic
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// scanLabels pre-creates a block per label so forward gotos resolve.
func (b *cfgBuilder) scanLabels(body *ast.BlockStmt) {
	b.labels = map[string]*Block{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			b.labels[v.Label.Name] = b.newBlock()
		}
		return true
	})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(v.List)
	case *ast.LabeledStmt:
		b.labeledStmt(v)
	case *ast.ReturnStmt:
		b.emit(v)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(v)
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v, "")
	case *ast.RangeStmt:
		b.rangeStmt(v, "")
	case *ast.SwitchStmt:
		b.switchStmt(v, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(v, "")
	case *ast.SelectStmt:
		b.selectStmt(v, "")
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, v)
		b.emit(v)
	case *ast.ExprStmt:
		b.emit(v)
		if call, ok := v.X.(*ast.CallExpr); ok && isTerminalCall(call) {
			b.cur = nil // panic/os.Exit/t.Fatal: control does not continue
		}
	default:
		// AssignStmt, DeclStmt, SendStmt, IncDecStmt, GoStmt.
		b.emit(v)
	}
}

func (b *cfgBuilder) labeledStmt(v *ast.LabeledStmt) {
	start := b.labels[v.Label.Name]
	b.edge(b.cur, start)
	b.cur = start
	switch s := v.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(s, v.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(s, v.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(s, v.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, v.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(s, v.Label.Name)
	default:
		b.stmt(v.Stmt)
	}
}

func (b *cfgBuilder) branchStmt(v *ast.BranchStmt) {
	b.emit(v)
	switch v.Tok {
	case token.BREAK:
		if t := b.findTarget(v.Label, false); t != nil {
			b.edge(b.cur, t.brk)
		}
	case token.CONTINUE:
		if t := b.findTarget(v.Label, true); t != nil {
			b.edge(b.cur, t.cont)
		}
	case token.GOTO:
		if v.Label != nil {
			b.edge(b.cur, b.labels[v.Label.Name])
		}
	case token.FALLTHROUGH:
		if n := len(b.fallTargets); n > 0 {
			b.edge(b.cur, b.fallTargets[n-1])
		}
	}
	b.cur = nil
}

// findTarget resolves break/continue to the innermost (or labeled)
// enclosing construct; needCont restricts the search to loops.
func (b *cfgBuilder) findTarget(label *ast.Ident, needCont bool) *cfgTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	b.stmt(v.Init)
	b.emit(v.Cond)
	cond := b.cur
	join := b.newBlock()
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(v.Body)
	b.edge(b.cur, join)
	if v.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(v.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt, label string) {
	b.stmt(v.Init)
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if v.Cond != nil {
		b.emit(v.Cond)
	}
	body := b.newBlock()
	join := b.newBlock()
	post := b.newBlock()
	b.edge(head, body)
	if v.Cond != nil {
		b.edge(head, join) // condition false: skip the body
	}
	b.targets = append(b.targets, cfgTarget{label: label, brk: join, cont: post})
	b.cur = body
	b.stmt(v.Body)
	b.targets = b.targets[:len(b.targets)-1]
	b.edge(b.cur, post)
	b.cur = post
	b.stmt(v.Post)
	b.edge(b.cur, head)
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.emit(v.X)
	b.emit(v.Key)
	b.emit(v.Value)
	body := b.newBlock()
	join := b.newBlock()
	b.edge(head, body)
	b.edge(head, join) // zero iterations
	b.targets = append(b.targets, cfgTarget{label: label, brk: join, cont: head})
	b.cur = body
	b.stmt(v.Body)
	b.targets = b.targets[:len(b.targets)-1]
	b.edge(b.cur, head)
	b.cur = join
}

func (b *cfgBuilder) switchStmt(v *ast.SwitchStmt, label string) {
	b.stmt(v.Init)
	b.emit(v.Tag)
	b.caseClauses(v.Body, label, true)
}

func (b *cfgBuilder) typeSwitchStmt(v *ast.TypeSwitchStmt, label string) {
	b.stmt(v.Init)
	b.emit(v.Assign)
	b.caseClauses(v.Body, label, false)
}

// caseClauses wires a (type-)switch body: head -> every clause, clauses ->
// join, fallthrough -> next clause, head -> join when there is no default.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, label string, allowFall bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, s := range body.List {
		cc := s.(*ast.CaseClause)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, join) // no case matched
	}
	b.targets = append(b.targets, cfgTarget{label: label, brk: join})
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		if allowFall {
			var next *Block
			if i+1 < len(blocks) {
				next = blocks[i+1]
			}
			b.fallTargets = append(b.fallTargets, next)
			b.stmtList(cc.Body)
			b.fallTargets = b.fallTargets[:len(b.fallTargets)-1]
		} else {
			b.stmtList(cc.Body)
		}
		b.edge(b.cur, join)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	b.targets = append(b.targets, cfgTarget{label: label, brk: join})
	for _, s := range v.Body.List {
		cc := s.(*ast.CommClause)
		cb := b.newBlock()
		b.edge(head, cb)
		b.cur = cb
		b.stmt(cc.Comm)
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	b.targets = b.targets[:len(b.targets)-1]
	// A select without a default still takes some case (or blocks
	// forever); there is no direct head -> join edge.
	b.cur = join
}

// isTerminalCall matches calls after which control cannot resume in this
// function: the panic builtin, os.Exit, runtime.Goexit, log.Fatal*, and
// testing's Fatal/FailNow/Skip family. Matching is by name — the builder
// has no type information — which is the same trade the go vet
// unreachable-code pass makes.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		sel := fun.Sel.Name
		if x, ok := fun.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && sel == "Exit":
				return true
			case x.Name == "runtime" && sel == "Goexit":
				return true
			case x.Name == "log" && (sel == "Fatal" || sel == "Fatalf" || sel == "Fatalln"):
				return true
			}
		}
		switch sel {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

func markReachable(g *CFG) {
	var stack []*Block
	g.Entry.Reachable = true
	stack = append(stack, g.Entry)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !s.Reachable {
				s.Reachable = true
				stack = append(stack, s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Dataflow solver

// BitSet is a fixed-capacity set of small integers — the fact domain of the
// dataflow solver (one bit per tracked obligation).
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns an empty set over the domain [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

func (s *BitSet) Set(i int)      { s.words[i/64] |= 1 << (uint(i) % 64) }
func (s *BitSet) ClearBit(i int) { s.words[i/64] &^= 1 << (uint(i) % 64) }
func (s *BitSet) Has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Fill sets every fact in the domain (the ⊤ element of a must-analysis).
func (s *BitSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(rem)) - 1
	}
}

func (s *BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s *BitSet) Copy() *BitSet {
	out := &BitSet{n: s.n, words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// UnionWith adds o's facts, reporting whether s changed.
func (s *BitSet) UnionWith(o *BitSet) bool {
	changed := false
	for i, w := range o.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith keeps only facts also in o, reporting whether s changed.
func (s *BitSet) IntersectWith(o *BitSet) bool {
	changed := false
	for i, w := range o.words {
		if nw := s.words[i] & w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// FlowProblem is a forward dataflow problem over one CFG. Facts are small
// integers; Gen and Kill give each node's effect (kill applies before gen,
// so a node that both discharges and re-creates a fact leaves it set), and
// Entry lists the facts already holding when the function starts. May
// selects the join: true unions facts over predecessors ("some path
// reaches this point with the fact"), false intersects them ("every path
// does").
type FlowProblem struct {
	CFG   *CFG
	Facts int
	May   bool
	Gen   map[ast.Node][]int
	Kill  map[ast.Node][]int
	Entry []int
}

// FlowResult holds the fixpoint: facts entering and leaving every block.
type FlowResult struct {
	prob *FlowProblem
	In   map[*Block]*BitSet
	Out  map[*Block]*BitSet
}

// Solve iterates to a fixpoint with a worklist. Termination is guaranteed:
// transfer functions are monotone over a finite lattice (facts only flow
// one way at each join), so every In set changes at most Facts times.
func (p *FlowProblem) Solve() *FlowResult {
	res := &FlowResult{prob: p, In: map[*Block]*BitSet{}, Out: map[*Block]*BitSet{}}
	for _, b := range p.CFG.Blocks {
		in := NewBitSet(p.Facts)
		if !p.May && b != p.CFG.Entry {
			in.Fill() // ⊤ until a predecessor proves otherwise
		}
		p.seedEntry(b, in)
		res.In[b] = in
		res.Out[b] = p.transfer(b, in)
	}
	work := append([]*Block{}, p.CFG.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		in := NewBitSet(p.Facts)
		if !p.May && b != p.CFG.Entry {
			if len(b.Preds) > 0 {
				in.Fill()
			}
		}
		for _, pred := range b.Preds {
			if p.May {
				in.UnionWith(res.Out[pred])
			} else {
				in.IntersectWith(res.Out[pred])
			}
		}
		p.seedEntry(b, in)
		res.In[b] = in
		out := p.transfer(b, in)
		old := res.Out[b]
		same := true
		for i := range out.words {
			if out.words[i] != old.words[i] {
				same = false
				break
			}
		}
		if !same {
			res.Out[b] = out
			work = append(work, b.Succs...)
		}
	}
	return res
}

// seedEntry adds the Entry facts to the facts entering the entry block.
func (p *FlowProblem) seedEntry(b *Block, in *BitSet) {
	if b != p.CFG.Entry {
		return
	}
	for _, i := range p.Entry {
		in.Set(i)
	}
}

func (p *FlowProblem) transfer(b *Block, in *BitSet) *BitSet {
	out := in.Copy()
	for _, n := range b.Nodes {
		p.apply(n, out)
	}
	return out
}

func (p *FlowProblem) apply(n ast.Node, facts *BitSet) {
	for _, i := range p.Kill[n] {
		facts.ClearBit(i)
	}
	for _, i := range p.Gen[n] {
		facts.Set(i)
	}
}

// Before returns the facts holding just before element idx of block b.
func (r *FlowResult) Before(b *Block, idx int) *BitSet {
	facts := r.In[b].Copy()
	for i := 0; i < idx && i < len(b.Nodes); i++ {
		r.prob.apply(b.Nodes[i], facts)
	}
	return facts
}

// cfgOf builds (and caches) the CFG for one function body. Analyzers
// running over the same unit share the graph.
func (p *Pass) cfgOf(body *ast.BlockStmt) *CFG {
	if g, ok := p.prog.cfgs[body]; ok {
		return g
	}
	g := BuildCFG(body)
	if p.prog.cfgs == nil {
		p.prog.cfgs = map[*ast.BlockStmt]*CFG{}
	}
	p.prog.cfgs[body] = g
	return g
}
