package lintcheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtureTrees pairs each testdata/src tree with the analyzer it exercises.
// Each tree holds a bad package (every finding marked with a want comment)
// and a good package (no findings).
var fixtureTrees = []struct {
	tree     string
	analyzer string
}{
	{"modmath", "modmath"},
	{"overflowvol", "overflowvol"},
	{"errcheck", "errcheck-lite"},
	{"syncmisuse", "syncmisuse"},
	{"retrymisuse", "retrymisuse"},
	{"doccomment", "doccomment"},
	{"ctxflow", "ctxflow"},
	{"spanend", "spanend"},
	{"metricschema", "metricschema"},
	{"failpointsite", "failpointsite"},
	{"goroutinelifecycle", "goroutinelifecycle"},
}

func fixtureDir(t *testing.T, tree string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", tree))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantSuffixes are the file kinds that may carry want comments: Go sources,
// plus the raw files the failpointsite scanner produces findings in.
var wantSuffixes = []string{".go", ".md", ".sh"}

// collectWants scans every fixture file under dir for // want "frag"
// comments and returns file -> line -> expected message fragment.
func collectWants(t *testing.T, dir string) map[string]map[int]string {
	t.Helper()
	wants := make(map[string]map[int]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		hit := false
		for _, suf := range wantSuffixes {
			if strings.HasSuffix(path, suf) {
				hit = true
				break
			}
		}
		if !hit {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if wants[path] == nil {
				wants[path] = make(map[int]string)
			}
			wants[path][i+1] = m[1]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestAnalyzersAgainstFixtures runs each analyzer over its fixture tree and
// checks the findings against the want comments: every finding must match a
// want on its line, and every want must be hit. Good packages carry no want
// comments, so any finding there fails the test.
func TestAnalyzersAgainstFixtures(t *testing.T) {
	for _, tc := range fixtureTrees {
		t.Run(tc.tree, func(t *testing.T) {
			dir := fixtureDir(t, tc.tree)
			u, err := Load(dir)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			for _, p := range u.Pkgs {
				for _, terr := range p.TypeErrors {
					t.Errorf("fixture %s: type error: %v", p.Path, terr)
				}
			}
			findings := Run(u, []*Analyzer{analyzerByName(t, tc.analyzer)}, nil)
			wants := collectWants(t, dir)
			matched := make(map[string]map[int]bool)
			for _, f := range findings {
				frag, ok := wants[f.File][f.Line]
				if !ok {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				if !strings.Contains(f.Message, frag) {
					t.Errorf("finding at %s:%d: message %q does not contain want %q",
						f.File, f.Line, f.Message, frag)
					continue
				}
				if matched[f.File] == nil {
					matched[f.File] = make(map[int]bool)
				}
				matched[f.File][f.Line] = true
			}
			for file, lines := range wants {
				for line, frag := range lines {
					if !matched[file][line] {
						t.Errorf("missing finding at %s:%d (want %q)", file, line, frag)
					}
				}
			}
		})
	}
}

// TestGolden runs the full analyzer suite over every fixture tree and
// compares the rendered findings (root-relative paths) against
// testdata/golden/<tree>.txt. Run with -update to rewrite.
func TestGolden(t *testing.T) {
	seen := make(map[string]bool)
	for _, tc := range fixtureTrees {
		if seen[tc.tree] {
			continue
		}
		seen[tc.tree] = true
		t.Run(tc.tree, func(t *testing.T) {
			dir := fixtureDir(t, tc.tree)
			u, err := Load(dir)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			var sb strings.Builder
			for _, f := range Run(u, All(), nil) {
				rel, err := filepath.Rel(dir, f.File)
				if err != nil {
					t.Fatal(err)
				}
				f.File = filepath.ToSlash(rel)
				fmt.Fprintf(&sb, "%s\n", f)
			}
			golden := filepath.Join("testdata", "golden", tc.tree+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (re-generate with -update): %v", err)
			}
			if got, want := sb.String(), string(data); got != want {
				t.Errorf("findings diverge from %s (re-generate with -update):\ngot:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}

// TestSuppressionDirective pins the //lint:ignore semantics: the directive
// silences its own line and the next one, for the named analyzer only.
func TestSuppressionDirective(t *testing.T) {
	dir := fixtureDir(t, "modmath")
	u, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The good fixture's canonical helper carries the only directive; with
	// suppression honored (Run) there must be no finding in good/.
	for _, f := range Run(u, []*Analyzer{analyzerByName(t, "modmath")}, nil) {
		if strings.Contains(filepath.ToSlash(f.File), "/good/") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
	// Bypassing Run, the raw analyzer does flag the helper — proving the
	// directive (not an analyzer blind spot) is what silences it.
	raw := 0
	for _, p := range u.Pkgs {
		if !strings.HasSuffix(p.Path, "/good") {
			continue
		}
		raw += len(runModmath(u, p))
	}
	if raw == 0 {
		t.Error("expected the raw analyzer to flag the canonical helper in good/")
	}
}

// TestNewAnalyzersHonorSuppression pins that every dataflow analyzer goes
// through the shared suppression table: each one's fixture findings vanish
// when a //lint:ignore entry is injected for their exact file and line.
func TestNewAnalyzersHonorSuppression(t *testing.T) {
	cases := []struct{ tree, analyzer string }{
		{"ctxflow", "ctxflow"},
		{"spanend", "spanend"},
		{"metricschema", "metricschema"},
		{"failpointsite", "failpointsite"},
		{"goroutinelifecycle", "goroutinelifecycle"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			u, err := Load(fixtureDir(t, tc.tree))
			if err != nil {
				t.Fatal(err)
			}
			a := analyzerByName(t, tc.analyzer)
			var found []Finding
			for _, f := range Run(u, []*Analyzer{a}, nil) {
				if f.Analyzer == tc.analyzer {
					found = append(found, f)
				}
			}
			if len(found) == 0 {
				t.Fatalf("analyzer %s produced no findings over its bad fixture", tc.analyzer)
			}
			for _, f := range found {
				m := u.suppress[f.File]
				if m == nil {
					m = make(map[int]map[string]bool)
					u.suppress[f.File] = m
				}
				if m[f.Line] == nil {
					m[f.Line] = make(map[string]bool)
				}
				m[f.Line][tc.analyzer] = true
			}
			for _, f := range Run(u, []*Analyzer{a}, nil) {
				if f.Analyzer == tc.analyzer {
					t.Errorf("finding survived suppression: %s", f)
				}
			}
		})
	}
}

// TestIgnoreMultiAnalyzer pins that one //lint:ignore directive naming two
// analyzers silences both on the line below.
func TestIgnoreMultiAnalyzer(t *testing.T) {
	u, err := Load(fixtureDir(t, "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	multi := u.Package("fixture/multi")
	if multi == nil {
		t.Fatal("fixture/multi did not load")
	}
	// Both raw analyzers flag the naked go statement...
	if n := len(runSyncmisuse(u, multi)); n == 0 {
		t.Error("expected raw syncmisuse findings in fixture/multi")
	}
	if n := len(runGoroutineLifecycle(u, multi)); n == 0 {
		t.Error("expected raw goroutinelifecycle findings in fixture/multi")
	}
	// ...and the single two-name directive silences both through Run.
	analyzers := []*Analyzer{
		analyzerByName(t, "syncmisuse"),
		analyzerByName(t, "goroutinelifecycle"),
	}
	for _, f := range Run(u, analyzers, nil) {
		if strings.Contains(filepath.ToSlash(f.File), "/multi/") {
			t.Errorf("finding survived the multi-analyzer directive: %s", f)
		}
	}
}

// TestIgnoreMissingReason pins that a reasonless directive suppresses
// nothing and surfaces as an unsuppressible lint-ignore finding.
func TestIgnoreMissingReason(t *testing.T) {
	u, err := Load(fixtureDir(t, "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(u, []*Analyzer{analyzerByName(t, "modmath")}, nil)
	var sawModmath, sawDirective bool
	for _, f := range findings {
		if !strings.Contains(filepath.ToSlash(f.File), "/missing/") {
			continue
		}
		switch f.Analyzer {
		case "modmath":
			sawModmath = true
		case "lint-ignore":
			sawDirective = true
			if !strings.Contains(f.Message, "missing a reason") {
				t.Errorf("lint-ignore message %q does not mention the missing reason", f.Message)
			}
		}
	}
	if !sawModmath {
		t.Error("reasonless directive still suppressed the modmath finding")
	}
	if !sawDirective {
		t.Error("malformed directive produced no lint-ignore finding")
	}
}

// FuzzLintIgnoreDirective hammers the directive parser: it must never
// panic, and a well-formed parse must yield non-empty analyzer names and a
// non-empty reason.
func FuzzLintIgnoreDirective(f *testing.F) {
	for _, seed := range []string{
		"lint:ignore modmath reason",
		"lint:ignore a,b two analyzers",
		"lint:ignore all everything",
		"lint:ignore",
		"lint:ignore modmath",
		"lint:ignore modmath, trailing comma",
		"lint:ignore ,lead comma",
		"lint:ignoreX not a directive",
		"not a directive at all",
		"  lint:ignore\tmodmath\ttabbed reason",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, err, ok := parseIgnoreDirective(text)
		if !ok {
			if names != nil || reason != "" || err != nil {
				t.Errorf("non-directive %q returned (%v, %q, %v)", text, names, reason, err)
			}
			return
		}
		if err != nil {
			return // malformed: rejected, nothing else to hold
		}
		if len(names) == 0 {
			t.Errorf("well-formed directive %q parsed to no analyzer names", text)
		}
		for _, n := range names {
			if n == "" {
				t.Errorf("well-formed directive %q contains an empty analyzer name", text)
			}
			if strings.ContainsAny(n, " \t") {
				t.Errorf("analyzer name %q from %q contains whitespace", n, text)
			}
		}
		if reason == "" {
			t.Errorf("well-formed directive %q parsed to an empty reason", text)
		}
	})
}

func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, err %v; want %d, nil", len(all), err, len(All()))
	}
	picked, err := Select("modmath,errcheck-lite", "")
	if err != nil || len(picked) != 2 {
		t.Fatalf("Select enable: got %d analyzers, err %v; want 2, nil", len(picked), err)
	}
	rest, err := Select("", "doccomment")
	if err != nil || len(rest) != len(All())-1 {
		t.Fatalf("Select disable: got %d analyzers, err %v; want %d, nil", len(rest), err, len(All())-1)
	}
	for _, a := range rest {
		if a.Name == "doccomment" {
			t.Error("disabled analyzer still selected")
		}
	}
	if _, err := Select("nope", ""); err == nil {
		t.Error("Select should reject unknown analyzer names")
	}
}
