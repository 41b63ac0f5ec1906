package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The fixture module under testdata/violations seeds at least one violation
// per analyzer, marked in-source with "// WANT:<analyzer>[ <analyzer>...]"
// trailing comments. Each analyzer's test demands an exact match between
// its markers and its findings — extra findings and missed markers both
// fail, so the fixtures also pin down what must NOT be flagged (allow
// annotations, poll-loop sleeps, Fresh: true kernels, Ctx-sibling shims).

const fixtureDir = "testdata/violations"

var fixture struct {
	once   sync.Once
	pkgs   []*analysis.Package
	diags  []analysis.Diagnostic
	unused []analysis.Allow
	err    error
}

func fixtureDiags(t *testing.T) []analysis.Diagnostic {
	t.Helper()
	fixture.once.Do(func() {
		pkgs, err := analysis.Load(fixtureDir, "./...")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.pkgs = pkgs
		fixture.diags, fixture.unused = analysis.RunDetail(pkgs, analysis.All())
	})
	if fixture.err != nil {
		t.Fatalf("loading fixture module: %v", fixture.err)
	}
	return fixture.diags
}

var wantRE = regexp.MustCompile(`// WANT:(\w+(?: \w+)*)`)

// wantMarkers scans the fixture tree for WANT comments and returns
// "relpath:line" keys per analyzer (repeated when a line expects several
// findings from the same analyzer).
func wantMarkers(t *testing.T) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	err := filepath.WalkDir(fixtureDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(fixtureDir, path)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, name := range strings.Fields(m[1]) {
				want[name] = append(want[name], rel+":"+strconv.Itoa(i+1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return want
}

// checkAnalyzer asserts the analyzer's findings over the fixture module
// exactly match its WANT markers.
func checkAnalyzer(t *testing.T, name string) {
	t.Helper()
	diags := fixtureDiags(t)
	root, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		if d.Analyzer != name {
			continue
		}
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		got = append(got, rel+":"+strconv.Itoa(d.Pos.Line))
	}
	want := wantMarkers(t)[name]
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s findings mismatch:\n got: %v\nwant: %v", name, got, want)
		for _, d := range diags {
			if d.Analyzer == name {
				t.Logf("  finding: %s", d)
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture has no WANT:%s markers; the seeded-violation self-test is vacuous", name)
	}
}

func TestFreshForwardFixture(t *testing.T) { checkAnalyzer(t, "freshforward") }
func TestGobSafeFixture(t *testing.T)      { checkAnalyzer(t, "gobsafe") }
func TestTestSleepFixture(t *testing.T)    { checkAnalyzer(t, "testsleep") }
func TestCtxThreadFixture(t *testing.T)    { checkAnalyzer(t, "ctxthread") }
func TestPanicPathFixture(t *testing.T)    { checkAnalyzer(t, "panicpath") }

func TestBackoffJitterFixture(t *testing.T) { checkAnalyzer(t, "backoffjitter") }

func TestMetricNameFixture(t *testing.T) { checkAnalyzer(t, "metricname") }

// The whole-program (callgraph + effect summary) analyzers: the fixtures
// seed cycles and leaks through generic helpers, method values used as
// callbacks, and closures captured by go statements, so these tests also
// pin the callgraph's resolution of those shapes.

func TestLockOrderFixture(t *testing.T)  { checkAnalyzer(t, "lockorder") }
func TestGoroLeakFixture(t *testing.T)   { checkAnalyzer(t, "goroleak") }
func TestUnsafeSendFixture(t *testing.T) { checkAnalyzer(t, "unsafesend") }

// The deadapi fixture pins the interface rule too: square.Area is reached
// only through Shape and must not be reported.
func TestDeadAPIFixture(t *testing.T) { checkAnalyzer(t, "deadapi") }

// TestUnusedAllows pins the staleness accounting: the fixture seeds
// exactly one allow annotation that suppresses nothing.
func TestUnusedAllows(t *testing.T) {
	fixtureDiags(t)
	if len(fixture.unused) != 1 {
		t.Fatalf("want exactly 1 unused allow, got %v", fixture.unused)
	}
	u := fixture.unused[0]
	if u.Analyzer != "unsafesend" || !strings.HasSuffix(u.Pos.Filename, "chans/chans.go") {
		t.Fatalf("unexpected unused allow: %+v", u)
	}
	if u.Reason == "" {
		t.Fatalf("unused allow lost its reason: %+v", u)
	}
}

// TestFindingsDeterministicOrder pins the reporting order — (file, line,
// column, analyzer, message) — and that a second run over the same
// packages reproduces it byte for byte.
func TestFindingsDeterministicOrder(t *testing.T) {
	diags := fixtureDiags(t)
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message <= b.Message
	}) {
		t.Fatalf("findings not sorted by (file, line, column, analyzer, message):\n%v", diags)
	}
	again, _ := analysis.RunDetail(fixture.pkgs, analysis.All())
	if len(again) != len(diags) {
		t.Fatalf("re-run produced %d findings, first run %d", len(again), len(diags))
	}
	for i := range diags {
		if diags[i] != again[i] {
			t.Fatalf("finding %d differs across runs:\n first: %s\nsecond: %s", i, diags[i], again[i])
		}
	}
}

// TestUnknownAnalyzersUnmarked guards against typos in WANT markers.
func TestUnknownAnalyzersUnmarked(t *testing.T) {
	known := map[string]bool{}
	for _, a := range analysis.All() {
		known[a.Name] = true
	}
	for name := range wantMarkers(t) {
		if !known[name] {
			t.Errorf("WANT marker names unknown analyzer %q", name)
		}
	}
}

// TestRepoIsVetClean runs every analyzer over the real module — the same
// gate CI applies via cmd/dcfvet.
func TestRepoIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, _ := analysis.RunDetail(pkgs, analysis.All())
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
