// Package analysis is the repo's zero-dependency invariant analyzer:
// a go/ast + go/types driver (standard library only — no x/tools) that
// loads every package in the module and runs a suite of repo-aware
// passes over them. Each pass mechanically enforces a correctness
// invariant that an earlier PR established by hand:
//
//   - ctxloop: solver search loops must observe context cancellation
//   - atomicfield: a field accessed atomically anywhere is accessed
//     atomically everywhere
//   - nosleeptest: tests poll or inject clocks; they never time.Sleep
//   - poolpair: sync.Pool Gets are paired with Puts and pooled scratch
//     types expose and call a reset
//   - metriconce: metric families register once, with closed label sets
//
// The driver is exercised by cmd/respect-lint and gated in CI; see
// docs/development.md for each pass's exact rule and suppression
// syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a resolved source position, the pass that
// produced it, and a human-readable message.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Pass names the pass that produced the finding (or "suppress" for
	// malformed //lint:ignore comments, which the driver itself flags).
	Pass string
	// Msg describes the violated invariant.
	Msg string
}

// String renders the diagnostic in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Msg)
}

// Pass is one invariant analyzer. Exactly one of Run (per-unit) and
// RunModule (whole-module, for cross-package facts) is set.
type Pass struct {
	// Name is the pass's identifier, used by -passes and //lint:ignore.
	Name string
	// Doc is a one-line description printed by respect-lint -list.
	Doc string
	// Run analyzes a single Unit.
	Run func(*Unit) []Diagnostic
	// RunModule analyzes all loaded Units together; passes that relate
	// facts across packages (atomicfield) use this form.
	RunModule func([]*Unit) []Diagnostic
}

// Passes returns every registered pass in name order.
func Passes() []*Pass {
	return []*Pass{
		{
			Name:      "atomicfield",
			Doc:       "fields accessed via sync/atomic anywhere must never be read or written plainly elsewhere",
			RunModule: atomicfieldModule,
		},
		{
			Name: "ctxloop",
			Doc:  "search loops in context-bearing solver functions must observe cancellation",
			Run:  ctxloopRun,
		},
		{
			Name: "metriconce",
			Doc:  "metric families register exactly once with constant names and closed label sets",
			Run:  metriconceRun,
		},
		{
			Name: "nosleeptest",
			Doc:  "no time.Sleep in _test.go files; poll with a deadline or inject a clock",
			Run:  nosleeptestRun,
		},
		{
			Name: "poolpair",
			Doc:  "every sync.Pool.Get is paired with a Put and pooled scratch types expose and call a reset",
			Run:  poolpairRun,
		},
	}
}

// PassByName returns the named pass, or nil.
func PassByName(name string) *Pass {
	for _, p := range Passes() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// suppressPass is the pseudo-pass name under which the driver reports
// malformed //lint:ignore comments. It is not itself suppressible.
const suppressPass = "suppress"

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	file string
	line int
	pass string
}

// collectSuppressions scans every comment in the units for
// //lint:ignore directives. A well-formed directive names a pass and
// gives a non-empty reason:
//
//	//lint:ignore nosleeptest simulated solver latency, bounded by the test deadline
//
// and suppresses that pass's diagnostics on the comment's own line and
// the line directly below it (covering both trailing and standalone
// placement). A directive with no reason, or naming an unknown pass,
// is itself a diagnostic — the reason is the point.
func collectSuppressions(units []*Unit) (map[suppression]bool, []Diagnostic) {
	sup := make(map[suppression]bool)
	var diags []Diagnostic
	seen := make(map[string]bool) // file paths already scanned (units can share files)
	for _, u := range units {
		for _, f := range u.Files {
			name := u.Filename(f.Package)
			if seen[name] {
				continue
			}
			seen[name] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:ignore")
					if !ok {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						diags = append(diags, Diagnostic{
							Pos: pos, Pass: suppressPass,
							Msg: "//lint:ignore needs a pass name and a reason: //lint:ignore <pass> <why this is safe>",
						})
						continue
					}
					if PassByName(fields[0]) == nil {
						diags = append(diags, Diagnostic{
							Pos: pos, Pass: suppressPass,
							Msg: fmt.Sprintf("//lint:ignore names unknown pass %q (run respect-lint -list)", fields[0]),
						})
						continue
					}
					sup[suppression{file: pos.Filename, line: pos.Line, pass: fields[0]}] = true
					sup[suppression{file: pos.Filename, line: pos.Line + 1, pass: fields[0]}] = true
				}
			}
		}
	}
	return sup, diags
}

// Run executes the passes over the units, applies //lint:ignore
// suppressions, and returns the surviving diagnostics in position
// order.
func Run(units []*Unit, passes []*Pass) []Diagnostic {
	var raw []Diagnostic
	for _, p := range passes {
		if p.Run != nil {
			for _, u := range units {
				raw = append(raw, p.Run(u)...)
			}
		}
		if p.RunModule != nil {
			raw = append(raw, p.RunModule(units)...)
		}
	}
	sup, diags := collectSuppressions(units)
	for _, d := range raw {
		if sup[suppression{file: d.Pos.Filename, line: d.Pos.Line, pass: d.Pass}] {
			continue
		}
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return diags
}

// diag builds a Diagnostic at pos within u.
func diag(u *Unit, pos token.Pos, pass, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: u.Fset.Position(pos), Pass: pass, Msg: fmt.Sprintf(format, args...)}
}

// lastSegment returns the final slash-separated element of an import
// path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isTestFile reports whether the file containing pos is a _test.go
// file.
func isTestFile(u *Unit, f *ast.File) bool {
	return strings.HasSuffix(u.Filename(f.Package), "_test.go")
}
