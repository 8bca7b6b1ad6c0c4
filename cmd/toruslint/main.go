// Command toruslint runs the repository's static-analysis suite (package
// internal/lintcheck) over the module and exits nonzero on findings.
//
//	go run ./cmd/toruslint ./...                  # whole module, all analyzers
//	go run ./cmd/toruslint -format=json ./...     # machine-readable output
//	go run ./cmd/toruslint -format=github ./...   # CI workflow annotations
//	go run ./cmd/toruslint -fix ./...             # apply mechanical fixes
//	go run ./cmd/toruslint -list                  # describe the analyzer suite
//	go run ./cmd/toruslint -disable=doccomment ./internal/torus
//
// -fix applies every finding's attached mechanical edit, then reloads and
// re-runs the suite; the exit code reflects what remains unfixed. -json is
// kept as an alias for -format=json.
//
// Exit codes: 0 clean, 1 findings reported, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"torusnet/internal/lintcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("toruslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (alias for -format=json)")
	format := fs.String("format", "", "output format: text (default), json, or github (workflow annotations)")
	fix := fs.Bool("fix", false, "apply each finding's mechanical fix, then re-run and report what remains")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	root := fs.String("root", ".", "module root to analyze")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *format {
	case "":
		if *jsonOut {
			*format = "json"
		} else {
			*format = "text"
		}
	case "text", "json", "github":
	default:
		emit(stderr, "toruslint: unknown -format %q (want text, json, or github)\n", *format)
		return 2
	}

	if *list {
		for _, a := range lintcheck.All() {
			emit(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lintcheck.Select(*enable, *disable)
	if err != nil {
		emit(stderr, "toruslint: %v\n", err)
		return 2
	}

	unit, findings, code := analyze(*root, analyzers, fs.Args(), stderr)
	if code != 0 {
		return code
	}

	if *fix {
		res, err := lintcheck.ApplyFixes(findings)
		if err != nil {
			emit(stderr, "toruslint: applying fixes: %v\n", err)
			return 2
		}
		emit(stderr, "toruslint: applied %d fix(es) in %d file(s), %d finding(s) skipped (no or conflicting fix)\n",
			res.Applied, len(res.FilesChanged), res.Skipped)
		// Re-run from scratch: the fixed tree is the only ground truth, and
		// idempotent fixes must not re-appear.
		unit, findings, code = analyze(*root, analyzers, fs.Args(), stderr)
		if code != 0 {
			return code
		}
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lintcheck.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			emit(stderr, "toruslint: %v\n", err)
			return 2
		}
	case "github":
		for _, f := range findings {
			emit(stdout, "%s\n", githubAnnotation(unit.Root, f))
		}
	default:
		for _, f := range findings {
			emit(stdout, "%s\n", f)
		}
		emit(stdout, "toruslint: %d finding(s) across %d package(s)\n", len(findings), len(unit.Pkgs))
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// analyze loads the module root and runs the selected analyzers once.
func analyze(root string, analyzers []*lintcheck.Analyzer, patterns []string, stderr io.Writer) (*lintcheck.Unit, []lintcheck.Finding, int) {
	unit, err := lintcheck.Load(root)
	if err != nil {
		emit(stderr, "toruslint: %v\n", err)
		return nil, nil, 2
	}
	for _, p := range unit.Pkgs {
		for _, terr := range p.TypeErrors {
			emit(stderr, "toruslint: %s: type error: %v\n", p.Path, terr)
		}
	}
	findings := lintcheck.Run(unit, analyzers, packageMatcher(unit, patterns))
	return unit, findings, 0
}

// githubAnnotation renders one finding as a GitHub Actions workflow command,
// so CI runs surface findings inline on the PR diff. Paths are root-relative
// (the runner's working directory is the checkout root).
func githubAnnotation(root string, f lintcheck.Finding) string {
	file := f.File
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	msg := f.Message
	if f.Suggestion != "" {
		msg += ": " + f.Suggestion
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=toruslint/%s::%s",
		file, f.Line, f.Col, ghEscape(f.Analyzer), ghEscape(msg))
}

// ghEscape applies the workflow-command data escaping rules.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// packageMatcher turns CLI patterns into a package filter. "./..." (or no
// pattern) selects everything; other patterns select packages whose import
// path or root-relative directory matches, with a trailing /... selecting
// the whole subtree.
func packageMatcher(u *lintcheck.Unit, patterns []string) func(*lintcheck.Package) bool {
	var prefixes []string
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/...")
		if pat == "" || pat == "." || pat == "..." {
			return nil // matches everything
		}
		if !strings.HasPrefix(pat, u.ModulePath) {
			pat = u.ModulePath + "/" + pat
		}
		prefixes = append(prefixes, pat)
	}
	if len(prefixes) == 0 {
		return nil
	}
	return func(p *lintcheck.Package) bool {
		for _, pre := range prefixes {
			if p.Path == pre || strings.HasPrefix(p.Path, pre+"/") {
				return true
			}
		}
		return false
	}
}

// emit writes best-effort CLI output; a broken stdout pipe is not a lint
// failure.
func emit(w io.Writer, format string, args ...any) {
	//lint:ignore errcheck-lite best-effort CLI output
	_, _ = fmt.Fprintf(w, format, args...)
}
