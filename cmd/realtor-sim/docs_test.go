package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const repoRoot = "../.."

var (
	makeTargetDef = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeInProse   = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	makeInFence   = regexp.MustCompile(`^\s*make ([a-z][a-z0-9-]*)`)
	dirPath       = regexp.MustCompile(`\b(cmd|examples)/([a-z][a-z0-9-]*)`)
	resultsFile   = regexp.MustCompile("`results/([a-z0-9_]+\\.txt)`")
	makeFuzzLine  = regexp.MustCompile(`-fuzz (Fuzz\w+)\$* .*?(\./\S+)`)
	fuzzFuncDecl  = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// The docs that teach the workflow may only name things that exist:
// every `make <target>` (in backticks or a fenced block — bare prose
// like "make sure" is not a target) must be a Makefile target, and every
// cmd/<x> or examples/<x> a directory. Deleting a target, a binary or an
// example without the doc edits fails here.
func TestDocsNameRealTargetsAndBinaries(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetDef.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			named := makeInProse.FindAllStringSubmatch(line, -1)
			if fenced {
				named = append(named, makeInFence.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range named {
				if !targets[m[1]] {
					t.Errorf("%s:%d names `make %s`, which the Makefile does not define", doc, i+1, m[1])
				}
			}
			for _, m := range dirPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(repoRoot, m[1], m[2])); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, m[0])
				}
			}
		}
	}
}

// `make fuzz` is the short pass "over every fuzz target": its lines
// must name exactly the func Fuzz* targets declared in the tree, each
// with the package that declares it. Adding a fuzz target without its
// Makefile line, or deleting one and leaving the line behind (which
// fails only when someone runs `make fuzz`), fails here.
func TestMakeFuzzNamesEveryFuzzTarget(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile defines no fuzz target")
	}
	body, _, _ = strings.Cut(body, "\n\n")
	listed := map[string]bool{}
	for _, m := range makeFuzzLine.FindAllStringSubmatch(body, -1) {
		listed[m[1]+" "+m[2]] = true
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err == nil && path == filepath.Join(repoRoot, "bench", "out") {
			return filepath.SkipDir // run output, see TestNoUnreferencedExports
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, m := range fuzzFuncDecl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]+" ./"+filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no func Fuzz* declarations; the walk is not seeing the tree")
	}
	for k := range declared {
		if !listed[k] {
			t.Errorf("fuzz target %s is not run by `make fuzz`", k)
		}
	}
	for k := range listed {
		if !declared[k] {
			t.Errorf("`make fuzz` runs %s, which no test file declares", k)
		}
	}
}

// A number quoted in an EXPERIMENTS.md table must be in the results/
// file it was read from: within a "## " section, every numeric cell of
// a markdown table has to equal some number of the results file named
// most recently before the table, after the rounding the doc applied
// (fewer decimals, comma-grouped thousands, bold). Tables in sections
// that name no results file (benchmark budgets, tolerance bands) are
// not results tables and are skipped. Regenerating a table without
// re-reading the prose around it fails here.
func TestExperimentsTablesQuoteResults(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	numbers := map[string][]float64{}              // results file -> every number in it
	plain := strings.NewReplacer("*", "", ",", "") // bold and digit grouping off
	source, checked := "", 0
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			source = ""
		}
		if m := resultsFile.FindAllStringSubmatch(line, -1); m != nil {
			source = m[len(m)-1][1]
		}
		if !strings.HasPrefix(line, "|") || source == "" {
			continue
		}
		if _, ok := numbers[source]; !ok {
			file, err := os.ReadFile(filepath.Join(resultsDir, source))
			if err != nil {
				t.Fatalf("EXPERIMENTS.md:%d: %v", i+1, err)
			}
			for _, f := range strings.Fields(string(file)) {
				if v, err := strconv.ParseFloat(f, 64); err == nil {
					numbers[source] = append(numbers[source], v)
				}
			}
		}
		for _, cell := range strings.Split(strings.Trim(line, "|"), "|") {
			text := plain.Replace(strings.TrimSpace(cell))
			quoted, err := strconv.ParseFloat(text, 64)
			if err != nil {
				continue
			}
			decimals := 0
			if _, frac, ok := strings.Cut(text, "."); ok {
				decimals = len(frac)
			}
			half := 0.5*math.Pow(10, -float64(decimals)) + 1e-9
			if !slices.ContainsFunc(numbers[source], func(v float64) bool { return math.Abs(v-quoted) <= half }) {
				t.Errorf("EXPERIMENTS.md:%d quotes %s, which rounds from no number in results/%s",
					i+1, strings.TrimSpace(cell), source)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("checked only %d table cells; the section or table matching has stopped seeing EXPERIMENTS.md", checked)
	}
}

// Every exported func or method declared in a non-test file under
// internal/ must be named somewhere else in the repo's .go files (tests
// count; so does the interface it implements). An export nobody names is
// surface that still has to be read, kept compiling and kept true — five
// of them had piled up by PR 19. Matching is by name, like `grep -w`:
// cheap, and strict enough to catch the symbol that lost its last caller.
// (A method that only ever satisfies a standard-library interface would
// need an allow-list here; today every String, Error and Less is also
// called by name.)
func TestNoUnreferencedExports(t *testing.T) {
	type decl struct {
		name, pos string
	}
	var exported []decl
	named := map[string]int{}    // identifier occurrences, declarations included
	declared := map[string]int{} // func and method declarations
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err == nil && path == filepath.Join(repoRoot, "bench", "out") {
			// Run output, not source: the bench package's tests create and
			// remove temporary directories there while this walk runs.
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		audited := strings.HasPrefix(filepath.ToSlash(path), repoRoot+"/internal/") && !strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				named[n.Name]++
			case *ast.FuncDecl:
				declared[n.Name.Name]++
				if audited && n.Name.IsExported() {
					exported = append(exported, decl{n.Name.Name, fset.Position(n.Pos()).String()})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) < 100 {
		t.Fatalf("audited only %d exported declarations; the walk is not seeing internal/", len(exported))
	}
	for _, d := range exported {
		if named[d.name] == declared[d.name] {
			t.Errorf("%s: exported %s is named nowhere but its declaration — delete it", d.pos, d.name)
		}
	}
}
