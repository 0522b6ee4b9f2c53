package gsi

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden figures:
//
//	go test -run TestGoldenFigures -update
//
// Golden files pin the rendered SmallScale figures so timing-model changes
// show up as reviewable diffs instead of silent drift. A failure here is
// not necessarily a bug — if the change to the breakdown is intended and
// the shape tests still pass, regenerate and review the diff.
var update = flag.Bool("update", false, "rewrite golden figure files")

const goldenWidth = 64

// goldenFigures renders every figure at SmallScale exactly as the CLI
// does: each figure normalized to its own baseline, the 6.4 sweep to the
// shared small-MSHR scratchpad baseline. The sets come from the memo.
func goldenFigures(t *testing.T) map[string]string {
	t.Helper()
	sc := SmallScale()
	sets := sharedFigures(t, sc, EngineSkip)
	bases := RenderBases(figureSpecs(sc), sets)
	out := make(map[string]string)
	for i, fs := range sets {
		name := strings.NewReplacer("[", "_", "]", "", "=", "").Replace("figure" + fs.ID)
		out[name+".golden"] = fs.RenderTo(goldenWidth, bases[i])
	}
	return out
}

func TestGoldenFigures(t *testing.T) {
	for name, got := range goldenFigures(t) {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test -run TestGoldenFigures -update` to create golden files)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s\n"+
				"If the change is intended, regenerate with -update and review the diff.",
				name, got, want)
		}
	}
}
