package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// QuerySeam enforces the oracle query-planner boundary (DESIGN.md §14):
// inside dnnlock/internal/core, nothing may call the oracle's Query or
// QueryBatch methods directly — every probe must route through the planner
// seam in planner.go, whose one oracle path is a.multi (and the retry
// helper it wraps). A raw call would bypass multi-point batching and
// retry accounting, silently corrupting both the query and the round
// counts the paper's Table 1 and the BENCH series report. Test files are
// exempt (they drive fakes and the oracle directly), as is planner.go
// itself — the one sanctioned call site.
var QuerySeam = &Analyzer{
	Name: "queryseam",
	Doc:  "internal/core must reach the oracle through the query planner (planner.go), never via raw Query/QueryBatch calls",
	Run:  runQuerySeam,
}

const (
	oraclePkgPath  = "dnnlock/internal/oracle"
	plannerPkgPath = "dnnlock/internal/core"
)

func runQuerySeam(p *Pass) {
	if p.Unit.Path != plannerPkgPath {
		return
	}
	for _, f := range p.Unit.Files {
		if p.IsTestFile(f) {
			continue
		}
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) == "planner.go" {
			continue // the sanctioned seam
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != oraclePkgPath {
				return true
			}
			// Only the oracle's *methods* are the seam; package-level
			// helpers (constructors, decorators) are free to call.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
				return true
			}
			switch fn.Name() {
			case "Query", "QueryBatch":
				p.Report(call.Pos(), "raw oracle.%s call in internal/core: route the probe through the planner seam (planner.go) so batching and round accounting stay correct", fn.Name())
			}
			return true
		})
	}
}
