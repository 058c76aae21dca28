package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one analyzable package: its parsed syntax, its type
// information, and its identity. Test files are part of the unit —
// in-package _test.go files are type-checked together with the package
// proper (the "augmented" package, exactly as `go test` compiles it),
// and an external foo_test package becomes its own Unit whose Path
// carries the "_test" suffix.
type Unit struct {
	// Path is the unit's import path ("respect/internal/serve");
	// external test packages carry a "_test" suffix.
	Path string
	// Dir is the directory the unit's files live in.
	Dir string
	// Fset is the file set all Pos values in the unit resolve against.
	Fset *token.FileSet
	// Files is the unit's parsed syntax, sorted by file name.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the unit's type-checking results (uses, defs,
	// selections, expression types).
	Info *types.Info
}

// Filename returns the name of the file containing pos.
func (u *Unit) Filename(pos token.Pos) string {
	return u.Fset.Position(pos).Filename
}

// Loader parses and type-checks the module's packages using only the
// standard library: go/parser for syntax, go/types with the source
// importer for types. Module-internal imports are resolved by the
// Loader itself (mapping "respect/..." paths onto the module tree);
// everything else (the standard library) is delegated to the source
// importer. A Loader memoizes type-checked packages, so loading the
// whole module type-checks each package once.
type Loader struct {
	// Fset is the shared file set for every package the Loader touches.
	Fset *token.FileSet
	// FixtureRoot, when set, resolves import paths that are not under
	// the module path against this directory instead — the fixture
	// harness points it at internal/analysis/testdata/src so fixture
	// packages can import each other and be loaded under short,
	// scope-meaningful import paths.
	FixtureRoot string

	root    string // module root directory (holds go.mod)
	module  string // module path declared in go.mod
	std     types.Importer
	plain   map[string]*types.Package // import path -> non-test package
	loading map[string]bool           // cycle guard
	parsed  map[string][]*ast.File    // dir -> parsed files, sorted by name
}

// NewLoader returns a Loader rooted at the module directory root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    abs,
		module:  mod,
		std:     importer.ForCompiler(fset, "source", nil),
		plain:   make(map[string]*types.Package),
		loading: make(map[string]bool),
		parsed:  make(map[string][]*ast.File),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// dirFor maps an import path to a directory the Loader owns, or
// reports that the path belongs to the standard library.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.module {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// importPathFor inverts dirFor: the import path a directory is loaded
// under.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if l.FixtureRoot != "" {
		if rel, err := filepath.Rel(l.FixtureRoot, abs); err == nil && rel != "." && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel), nil
		}
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside the module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses (and memoizes) the .go files directly inside dir that
// the go tool would build on this platform (build.Default.MatchFile: the
// //go:build line and the _GOOS/_GOARCH name suffixes), returning them
// sorted by name. A per-platform pair of files declares the same names
// twice, so taking both is a redeclaration, not a stricter check.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	if files, ok := l.parsed[dir]; ok {
		return files, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.parsed[dir] = files
	return files, nil
}

// partition splits a directory's files into the package proper, its
// in-package test files, and its external (foo_test) test files.
func (l *Loader) partition(files []*ast.File) (nonTest, inTest, extTest []*ast.File) {
	for _, f := range files {
		name := l.Fset.Position(f.Package).Filename
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			nonTest = append(nonTest, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return nonTest, inTest, extTest
}

// newInfo returns an Info with every map the passes consult allocated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// check type-checks files as package path with the given importer,
// tolerating nothing: the first type error aborts the load, because
// analyzing ill-typed syntax produces junk diagnostics.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := newInfo()
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return pkg, info, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return pkg, info, nil
}

// Import resolves an import for the type checker: module-internal (and
// fixture) paths are type-checked from source by the Loader itself,
// everything else is delegated to the standard library's source
// importer. Only a package's non-test files are visible to importers,
// matching the go tool.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.plain[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	nonTest, _, _ := l.partition(files)
	if len(nonTest) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	pkg, _, err := l.check(path, nonTest, l)
	if err != nil {
		return nil, err
	}
	l.plain[path] = pkg
	return pkg, nil
}

// selfImporter resolves an external test package's import of the
// package under test to the augmented package (including in-package
// test files such as export_test.go), the way `go test` links it.
type selfImporter struct {
	l    *Loader
	path string
	self *types.Package
}

// Import implements types.Importer.
func (s selfImporter) Import(path string) (*types.Package, error) {
	if path == s.path {
		return s.self, nil
	}
	return s.l.Import(path)
}

// LoadDir loads the package in dir as one or two Units: the augmented
// package (sources plus in-package test files) and, when present, the
// external foo_test package.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	nonTest, inTest, extTest := l.partition(files)
	aug := append(append([]*ast.File(nil), nonTest...), inTest...)
	if len(aug) == 0 && len(extTest) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var units []*Unit
	var augPkg *types.Package
	if len(aug) > 0 {
		pkg, info, err := l.check(path, aug, l)
		if err != nil {
			return nil, err
		}
		augPkg = pkg
		units = append(units, &Unit{Path: path, Dir: dir, Fset: l.Fset, Files: aug, Pkg: pkg, Info: info})
	}
	if len(extTest) > 0 {
		imp := types.Importer(l)
		if augPkg != nil {
			imp = selfImporter{l: l, path: path, self: augPkg}
		}
		pkg, info, err := l.check(path+"_test", extTest, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: path + "_test", Dir: dir, Fset: l.Fset, Files: extTest, Pkg: pkg, Info: info})
	}
	return units, nil
}

// LoadModule walks the module tree and loads every package in it,
// skipping testdata directories (they hold deliberate fixture
// violations) and hidden directories. Units come back in deterministic
// (path-sorted) order.
func (l *Loader) LoadModule() ([]*Unit, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	dirs = compactStrings(dirs)
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// compactStrings removes adjacent duplicates from a sorted slice.
func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
