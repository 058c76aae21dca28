package analysis

import (
	"go/ast"
)

// nosleeptestRun bans time.Sleep from test code. PR 8 deflaked every
// sleep-based assertion in the tree (injectable clocks, gated
// backends, channel-proven states); this pass pins that work forever:
// a test that sleeps is either wasting wall-clock or encoding a timing
// assumption that will flake under -race on a loaded CI runner. Poll
// intervals inside deadline-bounded wait loops are the one legitimate
// use; they carry a //lint:ignore with a reason.
func nosleeptestRun(u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, f := range u.Files {
		if !isTestFile(u, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgFunc(calleeObj(u.Info, call), "time", "Sleep") {
				diags = append(diags, diag(u, call.Pos(), "nosleeptest",
					"time.Sleep in test code: poll with a deadline or inject a clock (rt.Clock) instead"))
			}
			return true
		})
	}
	return diags
}
