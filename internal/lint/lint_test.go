package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// fixtureConfig wires the fixture module's packages into the
// architectural roles the analyzers check.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs:   []string{"lintfix/detmap", "lintfix/nondeterm"},
		ObsPkg:              "lintfix/nondeterm/obs",
		ErrTaxonomyPkgs:     []string{"lintfix/errtaxonomy", "lintfix/errtaxonomy/second"},
		GoroutineExemptPkgs: []string{"lintfix/baregoroutine/pool"},
		FaultsPkg:           "lintfix/faultsite/faults",
		FaultsUsePkgs:       []string{"lintfix/faultsite/serve"},
		CmdPkgPrefixes:      []string{"lintfix/ctxflow/cmd/"},
	}
}

var wantRe = regexp.MustCompile(`// want "(.*)"`)

// runGolden loads the fixture packages matching pattern, runs the given
// analyzers, and matches every diagnostic against the fixtures'
// `// want "regexp"` comments: each diagnostic must be wanted on its
// exact line, and every want must be hit.
func runGolden(t *testing.T, cfg Config, pattern string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load("testdata/src", pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %s", pattern)
	}

	type wantKey struct {
		file string
		line int
	}
	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[wantKey][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	diags := Run(cfg, pkgs, analyzers)
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

func TestDetMapGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./detmap/...", DetMap)
}

func TestNonDetermGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./nondeterm/...", NonDeterm)
}

func TestErrTaxonomyGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./errtaxonomy/...", ErrTaxonomy)
}

func TestBareGoroutineGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./baregoroutine/...", BareGoroutine)
}

func TestNilSafeObsGolden(t *testing.T) {
	cfg := fixtureConfig()
	cfg.ObsPkg = "lintfix/nilsafeobs"
	runGolden(t, cfg, "./nilsafeobs/...", NilSafeObs)
}

func TestFloatEqGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./floateq/...", FloatEq)
}

// TestHotPathAllocGolden covers the interprocedural no-alloc proof,
// including the cross-package edge: the marked root in ./hotpathalloc
// calls dep.Scale in the sibling package and the finding lands at the
// allocation inside dep — which only works if the facts engine
// canonicalizes the export-data callee object to the source-checked
// summary.
func TestHotPathAllocGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./hotpathalloc/...", HotPathAlloc)
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./ctxflow/...", CtxFlow)
}

func TestObsNamesGolden(t *testing.T) {
	cfg := fixtureConfig()
	cfg.ObsPkg = "lintfix/obsnames/obs"
	runGolden(t, cfg, "./obsnames/...", ObsNames)
}

func TestFaultSiteGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./faultsite/...", FaultSite)
}

// TestStaleIgnoreGolden runs floateq alongside staleignore so the
// fixture's live directive has something to suppress while the stale
// one is reported.
func TestStaleIgnoreGolden(t *testing.T) {
	runGolden(t, fixtureConfig(), "./staleignore", FloatEq, StaleIgnore)
}

// TestAnalyzerSuite pins the suite: eleven analyzers, unique names,
// docs present (rpmlint -list and the SARIF rule table depend on it).
func TestAnalyzerSuite(t *testing.T) {
	as := Analyzers()
	if len(as) != 11 {
		t.Fatalf("suite has %d analyzers, want 11", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"hotpathalloc", "ctxflow", "obsnames", "faultsite", "staleignore"} {
		if !seen[name] {
			t.Errorf("suite is missing %q", name)
		}
	}
}

// TestBadIgnoreDirectives pins the suppression contract: malformed
// directives (missing reason, unknown analyzer, bare) are diagnostics
// themselves and do not suppress the underlying finding.
func TestBadIgnoreDirectives(t *testing.T) {
	pkgs, err := Load("testdata/src", "./badignore")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	diags := Run(fixtureConfig(), pkgs, []*Analyzer{FloatEq})
	var directive, floateq int
	for _, d := range diags {
		switch d.Analyzer {
		case "rpmlint":
			directive++
		case "floateq":
			floateq++
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	if directive != 3 {
		t.Errorf("got %d malformed-directive diagnostics, want 3:\n%s", directive, render(diags))
	}
	if floateq != 3 {
		t.Errorf("got %d floateq diagnostics, want 3 (malformed directives must not suppress):\n%s", floateq, render(diags))
	}
	for _, needle := range []string{"missing a reason", "unknown analyzer"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, needle) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %q:\n%s", needle, render(diags))
		}
	}
}

// TestRepoClean is the gate the Makefile/CI lint step relies on: the
// full analyzer suite over the real repository reports nothing. Every
// deliberate exception is expected to carry a reasoned
// //rpmlint:ignore directive at the site.
func TestRepoClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags := Run(Defaults(), pkgs, Analyzers())
	if len(diags) != 0 {
		t.Errorf("rpmlint is not clean on the repo:\n%s", render(diags))
	}
}

// TestGoroutineExempt pins the prefix semantics of the exempt list.
func TestGoroutineExempt(t *testing.T) {
	cfg := Defaults()
	for path, want := range map[string]bool{
		"rpm/internal/parallel": true,
		"rpm/internal/serve":    true,
		"rpm/internal/obs":      true,
		"rpm/cmd/rpmserved":     true,
		"rpm/cmd/rpmarchive":    true,
		"rpm/internal/core":     false,
		"rpm":                   false,
		"rpm/examples/motifs":   false,
	} {
		if got := cfg.goroutineExempt(path); got != want {
			t.Errorf("goroutineExempt(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestErrTaxonomySet pins which packages are held to the typed-error
// taxonomy: the public API and the archive runner, and nothing else.
func TestErrTaxonomySet(t *testing.T) {
	cfg := Defaults()
	for path, want := range map[string]bool{
		"rpm":                              true,
		"rpm/internal/experiments/archive": true,
		"rpm/internal/core":                false,
		"rpm/internal/serve":               false,
		"rpm/internal/experiments":         false,
		"rpm/cmd/rpmarchive":               false,
	} {
		if got := cfg.errTaxonomyChecked(path); got != want {
			t.Errorf("errTaxonomyChecked(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestDeterministicSet pins the deterministic-package list against the
// paper-pipeline packages named in DESIGN.md §11.
func TestDeterministicSet(t *testing.T) {
	cfg := Defaults()
	for _, p := range []string{
		"rpm/internal/core", "rpm/internal/sax", "rpm/internal/sequitur",
		"rpm/internal/cluster", "rpm/internal/features", "rpm/internal/svm",
		"rpm/internal/direct", "rpm/internal/dist", "rpm/internal/paa",
	} {
		if !cfg.deterministic(p) {
			t.Errorf("%s should be deterministic", p)
		}
	}
	if cfg.deterministic("rpm/internal/serve") {
		t.Error("serve must not be in the deterministic set")
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
