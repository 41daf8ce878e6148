package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const repoRoot = "../.."

var (
	makeTargetDef = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeInProse   = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	makeInFence   = regexp.MustCompile(`^\s*make ([a-z][a-z0-9-]*)`)
	cmdPath       = regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`)
)

// The docs that teach the workflow may only name things that exist:
// every `make <target>` (in backticks or a fenced block — bare prose
// like "make sure" is not a target) must be a Makefile target, and every
// cmd/<x> a directory under cmd/. Deleting a target or a binary without
// the doc edits fails here.
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
			for _, m := range cmdPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(repoRoot, "cmd", m[1])); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}
