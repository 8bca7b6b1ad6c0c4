package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(tree string) string {
	return filepath.Join("..", "..", "internal", "lintcheck", "testdata", "src", tree)
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"modmath", "overflowvol", "errcheck-lite", "syncmisuse", "doccomment"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestFindingsExitNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-root", fixture("modmath"), "-enable", "modmath"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run on seeded-bad fixture = %d, want 1; stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "[modmath]") {
		t.Errorf("output missing modmath findings:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s) across") {
		t.Errorf("output missing summary line:\n%s", out.String())
	}
}

func TestDisableSilencesAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-root", fixture("modmath"), "-disable", "modmath"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run with sole offending analyzer disabled = %d, want 0\nstdout %q stderr %q",
			code, out.String(), errb.String())
	}
}

func TestJSONOutputOnCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-root", fixture(filepath.Join("modmath", "good")), "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run on clean fixture = %d, stderr %q", code, errb.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Errorf("clean fixture produced %d findings: %s", len(findings), out.String())
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-enable", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("run(-enable=nope) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %q", errb.String())
	}
}

func TestPackagePatternRestricts(t *testing.T) {
	var out, errb bytes.Buffer
	// The modmath tree has findings only under bad/; restricting the run to
	// good/ must come back clean.
	code := run([]string{"-root", fixture("modmath"), "-enable", "modmath", "good"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run restricted to good/ = %d, want 0\nstdout %q", code, out.String())
	}
	code = run([]string{"-root", fixture("modmath"), "-enable", "modmath", "bad"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run restricted to bad/ = %d, want 1", code)
	}
}

func TestGithubFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-root", fixture("modmath"), "-enable", "modmath", "-format", "github"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run -format=github on seeded-bad fixture = %d, want 1; stderr %q", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "::error file=bad/bad.go,line=") {
			t.Errorf("annotation line has wrong shape: %q", line)
		}
		if !strings.Contains(line, "title=toruslint/modmath::") {
			t.Errorf("annotation line missing analyzer title: %q", line)
		}
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "xml"}, &out, &errb); code != 2 {
		t.Fatalf("run(-format=xml) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") {
		t.Errorf("stderr missing diagnostic: %q", errb.String())
	}
}

// writeTree materializes a map of relative path -> contents under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, contents := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const fixableCtxflow = `// Package demo drops an in-scope context with a mechanical fix available.
package demo

import "context"

// Work does work without a context.
func Work(n int) int { return n + 1 }

// WorkCtx is the context-threading variant of Work.
func WorkCtx(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n + 1
}

// Run drops the context.
func Run(ctx context.Context, n int) int {
	return Work(n)
}
`

const fixableSpanend = `// Package span leaks a span with a mechanical defer fix available.
package span

import "context"

// Span is a minimal span; End is nil-safe.
type Span struct{ ended bool }

// End closes the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.ended = true
}

// Start opens a span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	_ = name
	return ctx, &Span{}
}

// Leaky forgets to end its span on the error path.
func Leaky(ctx context.Context, fail bool) error {
	ctx, sp := Start(ctx, "span.leaky")
	_ = ctx
	if fail {
		return context.Canceled
	}
	sp.End()
	return nil
}
`

// TestFixAppliesAndConverges pins the -fix contract: applying fixes removes
// the findings, the re-run inside the same invocation reports the tree
// clean, and a second -fix run is a no-op (idempotence).
func TestFixAppliesAndConverges(t *testing.T) {
	root := writeTree(t, map[string]string{
		"demo/demo.go": fixableCtxflow,
		"span/span.go": fixableSpanend,
	})
	args := []string{"-root", root, "-enable", "ctxflow,spanend", "-fix"}

	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("first -fix run = %d, want 0 (all findings fixable)\nstdout %q\nstderr %q",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "applied 2 fix(es)") {
		t.Errorf("fix summary missing: %q", errb.String())
	}
	fixed, err := os.ReadFile(filepath.Join(root, "demo", "demo.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "return WorkCtx(ctx, n)") {
		t.Errorf("ctxflow fix not applied:\n%s", fixed)
	}
	spanFixed, err := os.ReadFile(filepath.Join(root, "span", "span.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spanFixed), "defer sp.End()") {
		t.Errorf("spanend fix not applied:\n%s", spanFixed)
	}

	out.Reset()
	errb.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("second -fix run = %d, want 0\nstdout %q\nstderr %q", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "applied 0 fix(es)") {
		t.Errorf("second run should apply nothing: %q", errb.String())
	}
}
