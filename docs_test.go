package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test... name the documentation and the
// CI gate list cite is a test function of this module, or a prefix of
// one (the docs quote -run patterns such as TestDiagnose), so a renamed
// or deleted test cannot leave its documentation pointing at nothing.
// The same holds for the other things the prose cites: internal/<pkg>
// paths, `<name>` steps of the CI workflow, and "titles" of
// docs/ARCHITECTURE.md sections, which has one section per package.
func TestDocsCiteExistingTests(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	citeRE := regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md", ".github/gates.tsv"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRE.FindAllString(string(src), -1) {
			found := false
			for _, fn := range tests {
				if strings.HasPrefix(fn, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which names no test in the module", doc, name)
			}
		}
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*- name: (.+)$`).FindAllStringSubmatch(string(ci), -1) {
		steps[strings.TrimSpace(m[1])] = true
	}
	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(?:#+ |(?:- )?\*\*)([^*\n]+?)\.?(?:\*\*|$)`).FindAllStringSubmatch(string(arch), -1) {
		titles[m[1]] = true
	}
	pkgRE := regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
	stepRE := regexp.MustCompile("`([^`\n]+)`\\s+step\\b")
	titleRE := regexp.MustCompile(`ARCHITECTURE\.md[^"\w\n]{0,4}"([^"]+)"`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pkgRE.FindAllStringSubmatch(string(src), -1) {
			if _, err := os.Stat(filepath.Join("internal", m[1])); err != nil {
				t.Errorf("%s cites internal/%s, which does not exist", doc, m[1])
			}
		}
		for _, m := range stepRE.FindAllStringSubmatch(string(src), -1) {
			if !steps[m[1]] {
				t.Errorf("%s cites the `%s` step, which ci.yml does not have", doc, m[1])
			}
		}
		for _, m := range titleRE.FindAllStringSubmatch(string(src), -1) {
			if !titles[m[1]] {
				t.Errorf("%s cites the section %q, which docs/ARCHITECTURE.md does not have", doc, m[1])
			}
		}
	}

	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^## (.+)$`).FindAllStringSubmatch(string(arch), -1)
	for _, p := range pkgs {
		n := 0
		for _, h := range headings {
			for _, m := range pkgRE.FindAllStringSubmatch(h[1], -1) {
				if m[1] == p.Name() {
					n++
				}
			}
		}
		if n != 1 {
			t.Errorf("docs/ARCHITECTURE.md has %d sections for internal/%s, want one", n, p.Name())
		}
	}
}
