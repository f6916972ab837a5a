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
}
