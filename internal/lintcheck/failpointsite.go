package lintcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// runFailpointsite audits the failpoint registry end to end.
//
// Registration side (loaded packages): every failpoint.New argument must be
// a string literal (the registry is meant to be greppable), site names must
// be unique, and each name must follow the repo convention from DESIGN.md
// §10 — lowercase dot-separated segments whose first segment is the
// declaring package's name (service.cache.get, load.compute.merge).
//
// Reference side (raw scan of *_test.go, *.sh, and *.md files, which the
// type-checked loader never sees): every site string used in an explicit
// failpoint context — Enable calls, PUT/DELETE paths under
// debug/failpoints/, -failpoints flag or TORUSNET_FAILPOINTS env specs, and
// failpoint.New examples in docs — must resolve to a registered site, so
// chaos tests, the smoke script, and the operator docs cannot drift from
// the code. Dotted map keys and {"site", "spec"} tuples in test tables are
// checked too, but only when their first segment matches a registering
// package (avoiding span names and the like). Deliberate negative tests
// carry a //lint:ignore failpointsite directive on or above the line, which
// the raw scanner honors directly.
func runFailpointsite(u *Unit) []Finding {
	var out []Finding
	sites := make(map[string]token.Pos) // registered site -> first New call

	// Pass 1: registrations in loaded (non-test) packages.
	for _, p := range u.Pkgs {
		if p.Types == nil {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || fn.Name() != "New" || fn.Pkg() == nil || fn.Pkg().Name() != "failpoint" {
					return true
				}
				if len(call.Args) != 1 {
					return true
				}
				lit, ok := unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					out = append(out, u.finding("failpointsite", call.Args[0].Pos(),
						"failpoint.New argument must be a string literal so the site registry stays greppable", ""))
					return true
				}
				name := strings.Trim(lit.Value, "`\"")
				if first, dup := sites[name]; dup {
					out = append(out, u.finding("failpointsite", call.Pos(),
						fmt.Sprintf("failpoint site %q is already registered (line %d)",
							name, u.Fset.Position(first).Line), ""))
					return true
				}
				sites[name] = call.Pos()
				if !siteNameRe.MatchString(name) {
					out = append(out, u.finding("failpointsite", call.Pos(),
						fmt.Sprintf("failpoint site %q does not follow the <pkg>.<stage>[.<op>] convention (lowercase dot-separated segments)", name), ""))
				} else if seg := name[:strings.IndexByte(name, '.')]; seg != p.Types.Name() {
					out = append(out, u.finding("failpointsite", call.Pos(),
						fmt.Sprintf("failpoint site %q must start with its declaring package name %q", name, p.Types.Name()), ""))
				}
				return true
			})
		}
	}

	// Pass 2: raw files. Test files both register sites (var fp = New(...)
	// in _test.go) and reference them, so collect registrations first.
	raw := rawScanFiles(u)
	for _, rf := range raw {
		if !strings.HasSuffix(rf.path, "_test.go") {
			continue
		}
		for _, m := range testNewRe.FindAllStringSubmatchIndex(rf.data, -1) {
			whole := rf.data[m[0]:m[1]]
			name := rf.data[m[2]:m[3]]
			if !strings.Contains(whole, "failpoint.New") && !strings.Contains(rf.path, "failpoint") {
				continue
			}
			if _, ok := sites[name]; !ok {
				sites[name] = token.NoPos
			}
		}
	}
	pkgSegs := make(map[string]bool)
	for name := range sites {
		if i := strings.IndexByte(name, '.'); i > 0 {
			pkgSegs[name[:i]] = true
		}
	}

	for _, rf := range raw {
		isTest := strings.HasSuffix(rf.path, "_test.go")
		lines := strings.Split(rf.data, "\n")
		for i, line := range lines {
			if rawSuppressed(lines, i) {
				continue
			}
			for _, pat := range sitePatterns {
				if pat.testOnly && !isTest {
					continue
				}
				if pat.failpointPkgOnly && !strings.Contains(rf.path, "failpoint") {
					continue
				}
				for _, m := range pat.re.FindAllStringSubmatch(line, -1) {
					name := m[1]
					if pat.weak && !pkgSegs[firstSeg(name)] {
						continue
					}
					if _, ok := sites[name]; !ok {
						out = append(out, Finding{
							Analyzer: "failpointsite",
							File:     rf.path,
							Line:     i + 1,
							Col:      strings.Index(line, name) + 1,
							Message:  fmt.Sprintf("failpoint site %q is referenced here but registered nowhere", name),
							Suggestion: "register it with failpoint.New, fix the name, or mark a deliberate " +
								"negative test with //lint:ignore failpointsite <reason>",
						})
					}
				}
			}
		}
	}
	return out
}

var siteNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)+$`)

// testNewRe finds failpoint registrations in raw test files.
var testNewRe = regexp.MustCompile(`(?:failpoint\.)?\bNew\(\s*"([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)"\s*\)`)

// sitePatterns are the explicit contexts a failpoint site string appears in
// outside loaded Go code. weak patterns (test tables) only match sites whose
// first segment is a known registering package; failpointPkgOnly patterns
// (bare Enable) apply only to the failpoint package's own files.
var sitePatterns = []struct {
	re               *regexp.Regexp
	weak             bool
	testOnly         bool
	failpointPkgOnly bool
}{
	{re: regexp.MustCompile(`failpoint\.Enable\(\s*"([^"]+)"`)},
	{re: regexp.MustCompile(`(?:^|[^.\w])Enable\(\s*"([^"]+)"`), failpointPkgOnly: true, testOnly: true},
	{re: regexp.MustCompile(`debug/failpoints/([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)`)},
	{re: regexp.MustCompile(`failpoint\.New\(\s*"([^"]+)"`), testOnly: false},
	{re: regexp.MustCompile(`-failpoints[= ]'?"?([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)=`)},
	{re: regexp.MustCompile(`TORUSNET_FAILPOINTS=['"]?([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)=`)},
	{re: regexp.MustCompile(`\{"([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)",\s*"`), weak: true, testOnly: true},
	{re: regexp.MustCompile(`"([a-z][a-z0-9]*(?:\.[a-z][a-z0-9]*)+)":\s`), weak: true, testOnly: true},
}

func firstSeg(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// rawSuppressed honors //lint:ignore failpointsite directives in raw-scanned
// files (the loader's suppression table only covers loaded Go files). The
// directive works on its own line or the line above, in any comment syntax.
func rawSuppressed(lines []string, i int) bool {
	if strings.Contains(lines[i], "lint:ignore failpointsite") {
		return true
	}
	return i > 0 && strings.Contains(lines[i-1], "lint:ignore failpointsite")
}

type rawFile struct {
	path string
	data string
}

// rawScanFiles collects the unit's *_test.go, *.sh, and *.md files, skipping
// testdata, vendor, hidden, and underscore directories (mirroring the
// package loader) so analyzer fixtures never leak into a real run.
func rawScanFiles(u *Unit) []rawFile {
	var out []rawFile
	//lint:ignore errcheck-lite WalkDir only errors on unreadable dirs, which the loader already tolerated
	filepath.WalkDir(u.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != u.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") && !strings.HasSuffix(name, ".sh") && !strings.HasSuffix(name, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		out = append(out, rawFile{path, string(data)})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}
