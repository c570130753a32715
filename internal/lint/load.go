package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader turns a Go module directory into type-checked Units using only
// the standard library (go/parser + go/types; no x/tools). Each package
// directory yields up to two units: the library package together with its
// in-package _test.go files, and — when present — the external "_test"
// package. Imports of module-internal packages are resolved by type-checking
// the imported directory's non-test files on demand; everything else (the
// standard library) goes through the gc export-data importer with a
// from-source fallback, so the loader works both on a warm build cache and
// on a bare toolchain.

// Unit is one type-checked package as the analyzers see it.
type Unit struct {
	Path  string // import path; external test packages carry a "_test" suffix
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Program is a loaded module: every package under the module root,
// type-checked, plus the //lint: comment directives found while parsing.
type Program struct {
	Fset       *token.FileSet
	Units      []*Unit
	TypeErrors []error
	directives map[string]map[int][]*directive // filename -> line -> directives
	cfgs       map[*ast.BlockStmt]*CFG         // shared CFG cache across analyzers
}

// Load parses and type-checks every package of the module containing dir
// (skipping testdata, vendor, and hidden directories). Parse failures and
// I/O errors are returned; type errors are collected in TypeErrors so the
// analyzers can still run over a partially broken tree.
func Load(dir string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{Fset: fset, directives: map[string]map[int][]*directive{}}
	ld := &moduleLoader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		prog:    prog,
		parsed:  map[string]*parsedDir{},
		cache:   map[string]*types.Package{},
		gc:      importer.Default(),
		src:     importer.ForCompiler(fset, "source", nil),
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		pd, err := ld.parseDir(d)
		if err != nil {
			return nil, err
		}
		path := importPathFor(modPath, root, d)
		if len(pd.lib)+len(pd.inTest) > 0 {
			files := append(append([]*ast.File{}, pd.lib...), pd.inTest...)
			pkg, info := ld.check(path, files)
			prog.Units = append(prog.Units, &Unit{Path: path, Dir: d, Files: files, Pkg: pkg, Info: info})
		}
		if len(pd.ext) > 0 {
			pkg, info := ld.check(path+"_test", pd.ext)
			prog.Units = append(prog.Units, &Unit{Path: path + "_test", Dir: d, Files: pd.ext, Pkg: pkg, Info: info})
		}
	}
	prog.TypeErrors = ld.typeErrs
	return prog, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := moduleLine(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		d = parent
	}
}

func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok && rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// packageDirs returns every directory under root that holds .go files,
// skipping hidden directories, vendor, and testdata trees (matching the go
// tool's ./... expansion).
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func importPathFor(modPath, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// parsedDir caches one directory's parsed files, partitioned into the
// library package, its in-package tests, and the external _test package.
type parsedDir struct {
	name   string // library package name
	lib    []*ast.File
	inTest []*ast.File
	ext    []*ast.File
}

type moduleLoader struct {
	fset     *token.FileSet
	root     string
	modPath  string
	prog     *Program
	parsed   map[string]*parsedDir
	cache    map[string]*types.Package // import path -> library variant
	checking map[string]bool
	gc       types.Importer
	src      types.Importer
	typeErrs []error
}

func (l *moduleLoader) parseDir(dir string) (*parsedDir, error) {
	if pd, ok := l.parsed[dir]; ok {
		return pd, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.prog.scanDirectives(l.fset, f)
		name := f.Name.Name
		switch {
		case strings.HasSuffix(e.Name(), "_test.go") && strings.HasSuffix(name, "_test"):
			pd.ext = append(pd.ext, f)
		case strings.HasSuffix(e.Name(), "_test.go"):
			pd.inTest = append(pd.inTest, f)
		default:
			if pd.name != "" && pd.name != name {
				return nil, fmt.Errorf("lint: %s: conflicting package names %q and %q", dir, pd.name, name)
			}
			pd.name = name
			pd.lib = append(pd.lib, f)
		}
	}
	l.parsed[dir] = pd
	return pd, nil
}

// check type-checks one set of files as package path, recording type errors
// but never failing: the analyzers run over whatever was resolved.
func (l *moduleLoader) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	return pkg, info
}

// Import resolves module-internal import paths by type-checking the target
// directory's non-test files; everything else is delegated to the gc
// export-data importer, falling back to from-source import when no export
// data is available.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if l.checking == nil {
			l.checking = map[string]bool{}
		}
		if l.checking[path] {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		l.checking[path] = true
		defer delete(l.checking, path)
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		pd, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if len(pd.lib) == 0 {
			return nil, fmt.Errorf("lint: no Go source for %q in %s", path, dir)
		}
		pkg, _ := l.check(path, pd.lib)
		l.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := l.gc.Import(path)
	if err != nil || pkg == nil || !pkg.Complete() {
		pkg, err = l.src.Import(path)
	}
	if err == nil {
		l.cache[path] = pkg
	}
	return pkg, err
}
