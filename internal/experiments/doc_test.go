package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// decimal matches a number with a decimal point (optionally in e
// notation) that is not part of a name such as C1.5 or a longer number.
var decimal = regexp.MustCompile(`(?:^|[^\w.])(\d+\.\d+(?:e[-+]?\d+)?)`)

// docOnly lists the decimals EXPERIMENTS.md quotes that no study prints,
// each with its source or the arithmetic behind it from values the
// goldens do print.
var docOnly = map[string]string{
	"3.4":  "the paper's Section 3.4 (Figure 7's heading), not a measurement",
	"4.1":  "the paper's Section 4.1 (its worked example), not a measurement",
	"2.5":  "Figure 8, F(P^{U,P}) of C1.4 vs C1.5: (0.0203 - 0.0198) / 0.0198 = 0.025, i.e. 2.5 %",
	"0.25": "TopologyStudy's starved global link, GlobalBandwidth 0.25e9 B/s = 0.25 GB/s (an input)",
	"0.35": "the cluster model's default Interference.CrossSocketFactor (an input)",
}

// TestExperimentsDocQuotesGolden reads EXPERIMENTS.md's study sections
// (from "Table 1" through "Model validation", and from "Extension
// studies" up to "How to regenerate") and requires every decimal they
// quote to appear verbatim in testdata/all.golden, the paper-scale
// output, or on docOnly. A number the doc rounds differently from the
// printed table, or one left behind by a change to a study, fails.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, m := range decimal.FindAllStringSubmatch(string(golden), -1) {
		printed[m[1]] = true
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]bool{ // section heading prefix → checked from here on
		"## Table 1":              true,
		"## Scheduling extension": false, // the section after "Model validation"
		"## Extension studies":    true,
		"## How to regenerate":    false,
	}
	seen := map[string]bool{}
	used := map[string]bool{}
	in := false
	for i, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			for prefix, on := range bounds {
				if strings.HasPrefix(line, prefix) {
					in = on
					seen[prefix] = true
				}
			}
		}
		if !in {
			continue
		}
		for _, m := range decimal.FindAllStringSubmatch(line, -1) {
			n := m[1]
			if printed[n] {
				continue
			}
			if _, ok := docOnly[n]; ok {
				used[n] = true
				continue
			}
			t.Errorf("EXPERIMENTS.md:%d quotes %s, which all.golden does not print: %s", i+1, n, strings.TrimSpace(line))
		}
	}
	for prefix := range bounds {
		if !seen[prefix] {
			t.Errorf("EXPERIMENTS.md has no %q section", prefix)
		}
	}
	for n, why := range docOnly {
		if !used[n] {
			t.Errorf("docOnly lists %s (%s), which the checked sections no longer quote", n, why)
		}
	}
}
