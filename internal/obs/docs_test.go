package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// codeSeries is a metric name as the code registers or reads it.
	codeSeries = regexp.MustCompile(`"(copernicus_[a-z0-9_]+)"`)
	// docSeries is a series as docs/OBSERVABILITY.md lists it: a code span
	// holding a snake_case name, optionally with its labels, with or without
	// the copernicus_ prefix the doc states once.
	docSeries = regexp.MustCompile("`([a-z][a-z0-9_]*[a-z0-9])(?:\\{[^`]*\\})?`")
)

// TestObservabilityDocMatchesRegisteredSeries: the series the code names (any
// "copernicus_…" literal in non-test Go under internal/ and cmd/) and the
// series the Metrics section of docs/OBSERVABILITY.md lists are the same set,
// so neither can drift from the other.
func TestObservabilityDocMatchesRegisteredSeries(t *testing.T) {
	inCode := map[string]string{} // series → a file naming it
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range codeSeries.FindAllSubmatch(src, -1) {
				inCode[string(m[1])] = path
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## Metrics\n")
	if start < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no Metrics section")
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	inDoc := map[string]bool{}
	for _, m := range docSeries.FindAllStringSubmatch(section, -1) {
		name := m[1]
		if !strings.HasPrefix(name, "copernicus_") {
			name = "copernicus_" + name
		}
		inDoc[name] = true
	}

	var undocumented, unregistered []string
	for name, path := range inCode {
		if !inDoc[name] {
			undocumented = append(undocumented, name+" ("+path+")")
		}
	}
	for name := range inDoc {
		if _, ok := inCode[name]; !ok {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("series the code names but docs/OBSERVABILITY.md's Metrics section does not list:\n  %s",
			strings.Join(undocumented, "\n  "))
	}
	if len(unregistered) > 0 {
		t.Errorf("series docs/OBSERVABILITY.md lists but no code names:\n  %s", strings.Join(unregistered, "\n  "))
	}
	if len(inCode) < 50 {
		t.Errorf("found only %d series in the code; is the walk looking in the right place?", len(inCode))
	}
}
