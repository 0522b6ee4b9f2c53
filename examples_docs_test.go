package gsi

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// registryBlock matches a generated parameter-table block in an example
// README: everything between <!-- registry:NAME --> and <!-- /registry -->
// is owned by the generator below and regenerated from the workload
// registry, so example docs cannot drift from the schema.
var registryBlock = regexp.MustCompile(`(?s)<!-- registry:([a-z0-9]+) -->\n(.*?)<!-- /registry -->`)

// registryParamTable renders the canonical markdown block for one
// workload: its summary line and the full parameter schema with
// default-scale values and SmallScale overrides.
func registryParamTable(name string) (string, error) {
	e, ok := Workloads().Lookup(name)
	if !ok {
		return "", fmt.Errorf("workload %q is not in the registry", name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "`%s` — %s\n\n", e.Name, e.Summary)
	sb.WriteString("| parameter | description | default | small scale |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, p := range e.Params() {
		small := "—"
		if v, ok := e.Small[p.Name]; ok {
			small = "`" + v + "`"
		}
		// Pipes in help strings would split the table cell.
		help := strings.ReplaceAll(p.Help, "|", "\\|")
		fmt.Fprintf(&sb, "| `%s` | %s | `%s` | %s |\n", p.Name, help, p.Default, small)
	}
	return sb.String(), nil
}

// TestExampleREADMEParamTables keeps every example README's workload
// parameter tables generated from the registry schema: a parameter
// rename, default change, or new SmallScale override fails this test
// until the docs are regenerated with
//
//	go test -run TestExampleREADMEParamTables -update
func TestExampleREADMEParamTables(t *testing.T) {
	dirs, err := filepath.Glob("examples/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no example directories found: %v", err)
	}
	for _, dir := range dirs {
		path := filepath.Join(dir, "README.md")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: every example needs a README with a registry-generated parameter table: %v", dir, err)
			continue
		}
		blocks := registryBlock.FindAllSubmatchIndex(raw, -1)
		if len(blocks) == 0 {
			t.Errorf("%s: no <!-- registry:NAME --> parameter block found", path)
			continue
		}
		rebuilt := registryBlock.ReplaceAllFunc(raw, func(m []byte) []byte {
			sub := registryBlock.FindSubmatch(m)
			name := string(sub[1])
			table, err := registryParamTable(name)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return m
			}
			return []byte(fmt.Sprintf("<!-- registry:%s -->\n%s<!-- /registry -->", name, table))
		})
		if string(rebuilt) == string(raw) {
			continue
		}
		if *update {
			if err := os.WriteFile(path, rebuilt, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: regenerated parameter tables", path)
			continue
		}
		t.Errorf("%s: parameter tables drifted from the workload registry; regenerate with go test -run TestExampleREADMEParamTables -update", path)
	}
}
