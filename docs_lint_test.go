// Documentation lint, run as part of CI's docs-lint step:
//
//   - every relative link in the repo's Markdown files, and every *.md
//     path a Go comment names, must resolve to a file or directory that
//     exists;
//   - every exported identifier in the serving-stack packages
//     (internal/serve, internal/solver, internal/speculate) must carry a
//     doc comment, so `go doc` is complete where operators look first;
//   - the config tables of docs/operations.md are the fields of the
//     serve config structs, both ways (the flags table is held to the
//     FlagSet the same way by cmd/respect-serve's TestDocsFlagTable).
package respect_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mdLinkRE matches Markdown inline links and captures the destination.
var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdPathRE matches a Markdown file path named in prose.
var mdPathRE = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestDocsRelativeLinks checks in-repo relative links in the authored
// documentation (README.md, docs/, ROADMAP.md, CHANGES.md) resolve, and
// that every *.md path a Go comment names exists, from the repo root or
// from the commenting file's directory. PAPER.md / PAPERS.md /
// SNIPPETS.md are scraped research artifacts and are out of scope as
// sources of links.
func TestDocsRelativeLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	err := filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("only %v found; docs/ is missing", files)
	}

	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(raw), -1) {
			dest := m[1]
			if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") || strings.HasPrefix(dest, "#") {
				continue // external links and same-file anchors are out of scope
			}
			if i := strings.IndexByte(dest, '#'); i >= 0 {
				dest = dest[:i]
			}
			if dest == "" {
				continue
			}
			target := filepath.Join(filepath.Dir(file), dest)
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", file, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links checked; lint is miswired")
	}
	t.Logf("checked %d relative links across %d Markdown files", checked, len(files))

	refs := checkGoCommentDocRefs(t)
	if refs == 0 {
		t.Fatal("no Go-comment doc references checked; lint is miswired")
	}
	t.Logf("checked %d Markdown paths named in Go comments", refs)
}

// checkGoCommentDocRefs reports every *.md path named in a Go comment
// that resolves neither from the repo root nor from the file's own
// directory, and returns how many it checked.
func checkGoCommentDocRefs(t *testing.T) int {
	t.Helper()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var sc scanner.Scanner
		sc.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			for _, ref := range mdPathRE.FindAllString(lit, -1) {
				checked++
				if exists(ref) || exists(filepath.Join(filepath.Dir(path), ref)) {
					continue
				}
				t.Errorf("%s: comment names %s, which does not exist", fset.Position(pos), ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return checked
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// docCheckedPackages are the serving-stack packages held to full go-doc
// coverage of their exported identifiers.
var docCheckedPackages = []string{
	"internal/analysis",
	"internal/cluster",
	"internal/online",
	"internal/rt",
	"internal/serve",
	"internal/solver",
	"internal/speculate",
}

// notTestFile is the parser.ParseDir filter of both go/ast walks below.
func notTestFile(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// TestDocsExportedDocComments enforces doc comments on every exported
// top-level identifier (functions, methods on exported receivers, types,
// consts, vars) in the doc-checked packages.
func TestDocsExportedDocComments(t *testing.T) {
	for _, dir := range docCheckedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, notTestFile, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDeclDocs(t, fset, decl)
				}
			}
		}
	}
}

// checkDeclDocs reports exported declarations without doc comments.
func checkDeclDocs(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s lacks a doc comment", fset.Position(d.Pos()), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					t.Errorf("%s: exported type %s lacks a doc comment", fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				// A documented const/var block covers its members.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						t.Errorf("%s: exported %s lacks a doc comment", fset.Position(s.Pos()), name.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether fn is a plain function or a method
// whose receiver type is itself exported — methods on unexported types
// are not part of the package's go doc surface.
func exportedReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	typ := fn.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// docTables maps each serve config struct to the text in
// docs/operations.md that introduces its field table.
var docTables = map[string]string{
	"Config":            "## serve.Config",
	"ClassPolicy":       "`ClassPolicy` per class",
	"SpeculationConfig": "`serve.SpeculationConfig`",
	"OnlineConfig":      "`serve.OnlineConfig`",
	"RTConfig":          "`serve.RTConfig`",
	"ClusterConfig":     "`serve.ClusterConfig`",
}

// tableRowRE captures the first cell of a Markdown table row when it is
// a code span: the documented name.
var tableRowRE = regexp.MustCompile("^\\| `([^`]+)` \\|")

// firstTableNames returns the first-column names of the first Markdown
// table after marker in doc.
func firstTableNames(t *testing.T, doc, marker string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, marker)
	if !ok {
		t.Fatalf("docs/operations.md has no %q", marker)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := tableRowRE.FindStringSubmatch(line); m != nil {
			names = append(names, m[1])
		}
	}
	return names
}

// TestDocsOptionTables holds the config tables of docs/operations.md to
// the code: every exported field of a serve config struct has a row in its
// table and every row names a field that exists.
func TestDocsOptionTables(t *testing.T) {
	raw, err := os.ReadFile("docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/serve", notTestFile, 0)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string][]string{}
	for _, file := range pkgs["serve"].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || docTables[ts.Name.Name] == "" {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						fields[ts.Name.Name] = append(fields[ts.Name.Name], name.Name)
					}
				}
			}
			return false
		})
	}
	for typ, marker := range docTables {
		rows := firstTableNames(t, string(raw), marker)
		if len(fields[typ]) == 0 {
			t.Errorf("serve.%s not found in internal/serve", typ)
		}
		for _, f := range fields[typ] {
			if !slices.Contains(rows, f) {
				t.Errorf("docs/operations.md: the serve.%s table has no %s row", typ, f)
			}
		}
		for _, r := range rows {
			if !slices.Contains(fields[typ], r) {
				t.Errorf("docs/operations.md: the serve.%s table documents %s, which is not a field", typ, r)
			}
		}
	}
}
