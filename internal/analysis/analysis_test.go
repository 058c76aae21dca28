package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// One Loader for the whole test binary: the source importer's
// type-checked stdlib is the expensive part, and it is shared across
// every fixture.
var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := repoRoot()
		if err != nil {
			loaderErr = err
			return
		}
		sharedL, loaderErr = NewLoader(root)
		if loaderErr != nil {
			return
		}
		abs, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			loaderErr = err
			return
		}
		sharedL.FixtureRoot = abs
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedL
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above test working directory")
		}
		dir = parent
	}
}

// wantRE matches the fixture expectation syntax: // want `regexp`
var wantRE = regexp.MustCompile("// want `([^`]+)`")

// expectation is one // want comment: a diagnostic of the pass under
// test must land on its line with a message matching re.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// fixtureExpectations scans a unit's comments for want directives.
func fixtureExpectations(t *testing.T, u *Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture loads the fixture package at testdata/src/rel, runs the
// named pass over it, and checks the diagnostics against the // want
// comments: every want must be matched by a diagnostic on its line,
// and every diagnostic must be claimed by a want.
func runFixture(t *testing.T, passName, rel string) {
	t.Helper()
	l := fixtureLoader(t)
	units, err := l.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	pass := PassByName(passName)
	if pass == nil {
		t.Fatalf("no pass %q", passName)
	}
	var got []Diagnostic
	for _, u := range units {
		if pass.Run != nil {
			got = append(got, pass.Run(u)...)
		}
	}
	if pass.RunModule != nil {
		got = append(got, pass.RunModule(units)...)
	}
	var wants []*expectation
	for _, u := range units {
		wants = append(wants, fixtureExpectations(t, u)...)
	}
	for _, d := range got {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Msg) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestCtxloopFixtures(t *testing.T) {
	runFixture(t, "ctxloop", "ctxloop/exact")
	runFixture(t, "ctxloop", "ctxloop/other")
}

func TestAtomicfieldFixtures(t *testing.T) {
	runFixture(t, "atomicfield", "atomicfield")
}

func TestNosleeptestFixtures(t *testing.T) {
	runFixture(t, "nosleeptest", "nosleeptest/app")
}

func TestPoolpairFixtures(t *testing.T) {
	runFixture(t, "poolpair", "poolpair")
}

func TestMetriconceFixtures(t *testing.T) {
	runFixture(t, "metriconce", "metriconce/app")
}

// TestSuppressions drives the full Run pipeline over the suppression
// fixture: well-formed //lint:ignore comments (standalone and
// trailing) silence their findings; a missing reason or an unknown
// pass name is reported by the driver and suppresses nothing.
func TestSuppressions(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.LoadDir(filepath.Join("testdata", "src", "suppress", "app"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(units, Passes())
	var suppressMsgs, sleepLines []int
	for _, d := range diags {
		switch d.Pass {
		case "suppress":
			suppressMsgs = append(suppressMsgs, d.Pos.Line)
		case "nosleeptest":
			sleepLines = append(sleepLines, d.Pos.Line)
		default:
			t.Errorf("unexpected pass %q: %s", d.Pass, d)
		}
	}
	if len(suppressMsgs) != 2 {
		t.Errorf("want 2 malformed-suppression findings (no reason, unknown pass), got %d: %v", len(suppressMsgs), diags)
	}
	// The two malformed suppressions leave their sleeps unsuppressed;
	// the two well-formed ones silence theirs.
	if len(sleepLines) != 2 {
		t.Errorf("want 2 surviving nosleeptest findings, got %d at lines %v", len(sleepLines), sleepLines)
	}
}

// TestPassRegistry pins the pass catalogue's shape: sorted unique
// names, one-line docs, and exactly one of Run/RunModule per pass —
// respect-lint -list and //lint:ignore validation both key off it.
func TestPassRegistry(t *testing.T) {
	passes := Passes()
	if len(passes) < 5 {
		t.Fatalf("want at least 5 passes, got %d", len(passes))
	}
	for i, p := range passes {
		if p.Name == "" || p.Doc == "" {
			t.Errorf("pass %d has empty name or doc", i)
		}
		if i > 0 && passes[i-1].Name >= p.Name {
			t.Errorf("passes out of order: %q then %q", passes[i-1].Name, p.Name)
		}
		if (p.Run == nil) == (p.RunModule == nil) {
			t.Errorf("pass %s must set exactly one of Run/RunModule", p.Name)
		}
		if PassByName(p.Name) != nil && PassByName(p.Name).Name != p.Name {
			t.Errorf("PassByName(%q) broken", p.Name)
		}
	}
	if PassByName("nosuchpass") != nil {
		t.Error("PassByName invented a pass")
	}
}

// TestLoadHonoursBuildConstraints loads a package laid out like one with
// assembly kernels: an _amd64.go file (with a body-less function) and its
// //go:build !amd64 twin declare the same names. Exactly one of them
// belongs to the build, and every pass must run over the result.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.LoadDir(filepath.Join("testdata", "src", "buildpair"))
	if err != nil {
		t.Fatalf("loading a package with a build-constrained file pair: %v", err)
	}
	if len(units) != 1 || len(units[0].Files) != 2 {
		t.Fatalf("loaded %d units, the first with %d files; want buildpair.go and one of the twins", len(units), len(units[0].Files))
	}
	if units[0].Pkg.Scope().Lookup("sum4") == nil {
		t.Error("the selected twin's sum4 is not declared")
	}
	for _, d := range Run(units, Passes()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestLoadModuleShape loads the whole module and checks the loader's
// unit inventory: the root package, its external test package, and the
// internal packages all appear, and testdata fixtures do not.
func TestLoadModuleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	l := fixtureLoader(t)
	units, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]bool, len(units))
	for _, u := range units {
		byPath[u.Path] = true
	}
	for _, want := range []string{"respect", "respect_test", "respect/internal/serve", "respect/internal/analysis", "respect/internal/exact"} {
		if !byPath[want] {
			t.Errorf("LoadModule missing unit %s (have %d units)", want, len(units))
		}
	}
	for p := range byPath {
		if strings.Contains(p, "testdata") {
			t.Errorf("LoadModule loaded fixture package %s", p)
		}
	}
}

// TestModuleClean is the dogfooding gate inside the test suite: the
// entire module must be free of findings from every pass. This is the
// same check CI's lint job runs via respect-lint ./...; keeping it in
// the tests means `go test ./...` alone reproduces the gate.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is slow under -short")
	}
	l := fixtureLoader(t)
	units, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(units, Passes()) {
		t.Errorf("module not clean: %s", d)
	}
}
