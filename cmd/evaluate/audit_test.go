package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkRef matches a check a DESIGN.md table cell names in backticks.
var checkRef = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]+)`")

// TestDesignAuditTableChecksExist keeps DESIGN.md §6's extension audit
// table from rotting: every row carries one of the three verdicts, every
// kept row names at least one Test, Benchmark or Fuzz function, and
// every function a row names is defined in a _test.go file of the tree.
func TestDesignAuditTableChecksExist(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## 6. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §6")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	defined := definedChecks(t, root)

	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("§6 row has %d cells, want 4: %s", len(cells), line)
		}
		extension, verdict := strings.TrimSpace(cells[0]), strings.TrimSpace(cells[2])
		if extension == "Extension" || strings.HasPrefix(extension, "---") {
			continue
		}
		rows++
		kept := strings.HasPrefix(verdict, "paper-stated") || strings.HasPrefix(verdict, "earns")
		if !kept && !strings.HasPrefix(verdict, "deleted") {
			t.Errorf("%s: verdict %q is none of paper-stated, earns, deleted", extension, verdict)
		}
		names := checkRef.FindAllStringSubmatch(cells[3], -1)
		if kept && len(names) == 0 {
			t.Errorf("%s: kept, but names no Test, Benchmark or Fuzz function", extension)
		}
		for _, m := range names {
			if !defined[m[1]] {
				t.Errorf("%s: names %s, which no _test.go file defines", extension, m[1])
			}
		}
	}
	if rows == 0 {
		t.Fatal("DESIGN.md §6 has no audit table rows")
	}
}

// definedChecks collects every Test, Benchmark and Fuzz function declared
// in a _test.go file under root.
func definedChecks(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]+)\(`)
	defined := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}
