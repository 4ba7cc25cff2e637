package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	for _, id := range []string{"F1a", "t4", "C7", "P1", "A3", "E1"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range AllWithAblations() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) < 19 {
		t.Errorf("only %d experiments registered", len(seen))
	}
}

// fastIDs are the experiments that finish in seconds together; they
// run against the golden file in every `go test`.  slowIDs take about
// 50 s together, so they run only when SCG_GOLDEN_SLOW is set (ci.sh
// sets it in its own step).
var (
	fastIDs = []string{"F1a", "F1b", "T1", "T2", "T3", "T4", "T5", "C1", "T6", "T7", "C4", "C5", "C6", "C7", "P1", "P2", "P3", "P4", "E1", "E2", "A2", "A3", "A5", "A6", "R2"}
	slowIDs = []string{"C2", "C3", "A1", "A4", "R1"}
)

// TestFastExperimentsRun compares the output of every fast experiment
// with its section of experiments_output.txt, so a changed reproduced
// number fails tier-1.
func TestFastExperimentsRun(t *testing.T) {
	if got, want := len(fastIDs)+len(slowIDs), len(AllWithAblations()); got != want {
		t.Fatalf("fastIDs and slowIDs list %d experiments, %d are registered", got, want)
	}
	checkGolden(t, fastIDs)
}

// TestSlowExperimentsGolden compares the slow experiments with the
// golden file when SCG_GOLDEN_SLOW is set.
func TestSlowExperimentsGolden(t *testing.T) {
	if os.Getenv("SCG_GOLDEN_SLOW") == "" {
		t.Skip("set SCG_GOLDEN_SLOW=1 to compare C2, C3, A1, A4 and R1 (about 50 s)")
	}
	checkGolden(t, slowIDs)
}

// checkGolden runs each experiment and compares its output with its
// section of experiments_output.txt, printing a line diff on a
// mismatch.
func checkGolden(t *testing.T, ids []string) {
	golden := goldenSections(t)
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, ok := golden[id]
		if !ok {
			t.Errorf("experiments_output.txt has no %s section", id)
			continue
		}
		if out != want {
			t.Errorf("%s differs from experiments_output.txt (- golden, + now); if the change is meant, regenerate with `go run ./cmd/experiments > experiments_output.txt`:\n%s",
				id, lineDiff(want, out))
		}
	}
}

var (
	sectionHeader = regexp.MustCompile(`(?m)^=== (\S+) — .* ===\n`)
	timingLine    = regexp.MustCompile(`\(\d+\.\d\ds\)\n\n?$`)
)

// goldenSections splits experiments_output.txt into each experiment's
// output by ID, without its "=== ID — title ===" header and its
// "(N.NNs)" timing line.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	locs := sectionHeader.FindAllSubmatchIndex(blob, -1)
	sections := map[string]string{}
	for i, loc := range locs {
		end := len(blob)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		id, body := string(blob[loc[2]:loc[3]]), blob[loc[1]:end]
		m := timingLine.FindIndex(body)
		if m == nil {
			t.Fatalf("experiments_output.txt: section %s has no timing line", id)
		}
		sections[id] = string(body[:m[0]])
	}
	return sections
}

// lineDiff renders want → got line by line along a longest common
// subsequence: "- " lines only in want, "+ " lines only in got.
func lineDiff(want, got string) string {
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	lcs := make([][]int, len(a)+1) // lcs[i][j]: LCS length of a[i:], b[j:]
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var sb strings.Builder
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			sb.WriteString("  " + a[i] + "\n")
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			sb.WriteString("- " + a[i] + "\n")
			i++
		default:
			sb.WriteString("+ " + b[j] + "\n")
			j++
		}
	}
	return sb.String()
}

func TestFigure1bReportsCaptionNumbers(t *testing.T) {
	out, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"93% average", "5 steps fully used", "6 steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1b output missing %q", want)
		}
	}
}

func TestTheorem5ReportsFinding(t *testing.T) {
	out, err := Theorem5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "theorem+1") {
		t.Error("Theorem5 output should flag the MIS(2,2) off-by-one")
	}
}
