// Package lintcheck is a repository-specific static-analysis suite built
// only on the standard library's go/parser, go/ast, and go/types. It loads
// every package of the module and runs analyzers that enforce invariants the
// paper reproduction depends on: normalized modular arithmetic on wrap
// paths, overflow-guarded volume computations, no silently discarded errors,
// sound sync primitive usage, and package doc comments everywhere (with
// documented facade re-exports). On top of the syntactic
// checks, the dataflow suite polices the serving stack's lifecycle
// disciplines: contexts must flow (ctxflow), spans must end on every path
// (spanend), metrics must match the promSchema table (metricschema),
// failpoint sites must resolve (failpointsite), and goroutines must have an
// owner (goroutinelifecycle).
//
// Findings can be silenced per line with a //lint:ignore <analyzer> <reason>
// directive — the reason is mandatory, and a directive without one is
// itself a finding and suppresses nothing. ctxflow additionally honors
// ctxflow_allowlist.txt (see that file for format).
//
// # Writing a new analyzer
//
// An analyzer is one run<Name> function returning []Finding plus an entry
// in All(). Set the entry's Package field for per-package checks (it runs
// once per loaded package, with the shared Unit for position/suppression
// helpers) or Unitwide for cross-package checks (metricschema and
// failpointsite are the models — they see every package,
// and failpointsite shows how to fold in raw non-Go files like scripts and
// docs). Build findings with u.finding(name, pos, message, suggestion);
// when the repair is purely mechanical, attach TextEdit byte-range edits so
// `toruslint -fix` can apply it — edits must be idempotent: applying them
// has to make the finding (and so the edit) disappear on the next run.
// Every analyzer needs a seeded-bad and a known-good fixture package under
// testdata/src/<name>/{bad,good}, where each bad line carries a
// `// want "message fragment"` comment, and a golden file regenerated with
// `go test ./internal/lintcheck -run TestGolden -update`. The harness
// fails on unexpected, missing, or mismatched findings, and
// TestNewAnalyzersHonorSuppression pins that the analyzer respects
// //lint:ignore.
package lintcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
	// Edits, when non-empty, is a mechanical fix for the finding that
	// `toruslint -fix` can apply. Applying the edits must make the finding
	// disappear on the next run (fixes are idempotent).
	Edits []TextEdit `json:"edits,omitempty"`
}

// TextEdit replaces the byte range [Start, End) of File with Text. Offsets
// are 0-based byte offsets into the file as loaded (token.Position.Offset).
// An insertion has Start == End.
type TextEdit struct {
	File  string `json:"file"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if f.Suggestion != "" {
		s += " (" + f.Suggestion + ")"
	}
	return s
}

// Analyzer is one registered check. Exactly one of Package or Unitwide is
// set: Package runs once per loaded package, Unitwide once per unit (used by
// cross-package checks like metricschema).
type Analyzer struct {
	Name     string
	Doc      string
	Package  func(u *Unit, p *Package) []Finding
	Unitwide func(u *Unit) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		{
			Name:    "modmath",
			Doc:     "flags raw % on possibly-negative values and manual mod normalization; wrap coordinates with torus.Mod",
			Package: runModmath,
		},
		{
			Name:    "overflowvol",
			Doc:     "flags unguarded k^d-style volume computations (loop products, 1<<n, int(math.Pow)); use torus.Volume or a MaxNodes guard",
			Package: runOverflowvol,
		},
		{
			Name:    "errcheck-lite",
			Doc:     "flags discarded error returns (bare calls and _ assignments) outside test files",
			Package: runErrcheck,
		},
		{
			Name:    "syncmisuse",
			Doc:     "flags sync.Mutex/WaitGroup values copied by value and goroutines without a visible join in the same function",
			Package: runSyncmisuse,
		},
		{
			Name:    "retrymisuse",
			Doc:     "flags uncancellable retry loops: bare time.Sleep in a for body, and <-time.After receives with no ctx.Done() escape",
			Package: runRetrymisuse,
		},
		{
			Name:    "doccomment",
			Doc:     "flags packages without a package doc comment and undocumented exported declarations in the module-root facade package",
			Package: runDoccomment,
		},
		{
			Name:    "ctxflow",
			Doc:     "flags re-rooted contexts (context.Background/TODO outside main, tests, and the allowlist) and calls that drop an in-scope ctx when the package exports a Ctx-variant of the callee",
			Package: runCtxflow,
		},
		{
			Name:    "spanend",
			Doc:     "flags spans (obs.Start / Tracer.Root results) that are discarded or not ended on every return path; fix with defer sp.End()",
			Package: runSpanend,
		},
		{
			Name:     "metricschema",
			Doc:      "cross-checks expvar counter names against the promSchema table (no orphan or phantom metrics), Prometheus family-name uniqueness, and ascending histogram bucket tables",
			Unitwide: runMetricschema,
		},
		{
			Name:     "failpointsite",
			Doc:      "checks failpoint.New sites for uniqueness and pkg.stage naming, and resolves every site referenced by chaos tests, smoke scripts, and docs against the registry",
			Unitwide: runFailpointsite,
		},
		{
			Name:    "goroutinelifecycle",
			Doc:     "flags naked go statements in library packages: goroutines must be tied to a sync.WaitGroup (Add before launch or Done inside) or carry a //lint:ignore with rationale",
			Package: runGoroutineLifecycle,
		},
	}
}

// Select resolves comma-separated -enable/-disable lists against the full
// suite. Empty enable means "all".
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	picked := make(map[string]bool)
	if enable == "" {
		for name := range byName {
			picked[name] = true
		}
	} else {
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				return nil, fmt.Errorf("lintcheck: unknown analyzer %q", name)
			}
			picked[name] = true
		}
	}
	if disable != "" {
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				return nil, fmt.Errorf("lintcheck: unknown analyzer %q", name)
			}
			delete(picked, name)
		}
	}
	var out []*Analyzer
	for _, a := range All() {
		if picked[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Run executes the analyzers over the unit. A non-nil match restricts
// per-package analyzers to matching packages. Suppressed findings are
// dropped; the rest are sorted by position. Malformed //lint:ignore
// directives recorded at load time are always reported (as analyzer
// "lint-ignore") and cannot themselves be suppressed.
func Run(u *Unit, analyzers []*Analyzer, match func(*Package) bool) []Finding {
	var all []Finding
	for _, a := range analyzers {
		switch {
		case a.Unitwide != nil:
			all = append(all, a.Unitwide(u)...)
		case a.Package != nil:
			for _, p := range u.Pkgs {
				if match != nil && !match(p) {
					continue
				}
				all = append(all, a.Package(u, p)...)
			}
		}
	}
	kept := all[:0]
	for _, f := range all {
		if !u.Suppressed(f.Analyzer, token.Position{Filename: f.File, Line: f.Line}) {
			kept = append(kept, f)
		}
	}
	kept = append(kept, u.DirectiveFindings...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// finding builds a Finding at the given position.
func (u *Unit) finding(analyzer string, pos token.Pos, message, suggestion string) Finding {
	p := u.Fset.Position(pos)
	return Finding{
		Analyzer:   analyzer,
		File:       p.Filename,
		Line:       p.Line,
		Col:        p.Column,
		Message:    message,
		Suggestion: suggestion,
	}
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// mentionsIdent reports whether the subtree contains an identifier with the
// given name.
func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
