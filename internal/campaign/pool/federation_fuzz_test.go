package pool

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ensemblekit/internal/telemetry"
)

// FuzzParseExposition fuzzes the federation merge's two text steps over a
// peer's exposition: parseExposition's family split and injectNodeLabel's
// node stamp. It is seeded with a real registry exposition (a counter, a
// labelled counter and a histogram). Properties: neither panics; every
// non-comment line after the first `# TYPE` lands in exactly one family —
// the one its latest `# TYPE` opened — in input order, and no other line
// does; a stamped sample line starts its label set with node="<id>" and
// keeps the rest of the line byte-equal.
func FuzzParseExposition(f *testing.F) {
	reg := telemetry.NewRegistry()
	reg.Counter("pool_forwards_total", "Jobs forwarded to their owner.").Add(3)
	reg.CounterVec("pool_lookups_total", "Fleet-cache lookups by outcome.", "outcome").With("hit").Inc()
	reg.Histogram("pool_forward_seconds", "Forward round trips.", []float64{0.001, 0.01}).Observe(0.004)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String(), "n1")
	f.Add("stray 1\n# TYPE a counter\na 1\n# HELP b x\n#c\n\n# TYPE b\nb{x=\"y\"} 2\n", `n"2`)

	f.Fuzz(func(t *testing.T, text, node string) {
		// The model: group the lines by the latest `# TYPE` line.
		var want [][]string
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, "# TYPE "):
				want = append(want, []string{})
			case line == "" || strings.HasPrefix(line, "#") || want == nil:
			default:
				want[len(want)-1] = append(want[len(want)-1], line)
			}
		}
		fams := parseExposition(text)
		if len(fams) != len(want) {
			t.Fatalf("%d families, want one per # TYPE line (%d)", len(fams), len(want))
		}
		for i, fam := range fams {
			if !strings.HasPrefix(fam.typ, "# TYPE "+fam.name) {
				t.Fatalf("family %d: name %q is not its TYPE line's %q", i, fam.name, fam.typ)
			}
			if !slices.Equal(fam.samples, want[i]) {
				t.Fatalf("family %d (%s): samples %q, want %q", i, fam.name, fam.samples, want[i])
			}
			for _, line := range fam.samples {
				checkStamp(t, line, node)
			}
		}
	})
}

// checkStamp holds injectNodeLabel's output for one sample line to the
// line itself: unchanged when it has no label set or value to stamp
// before, else node="<id>" opens the label set and every other byte of
// the line is kept.
func checkStamp(t *testing.T, line, node string) {
	t.Helper()
	got := injectNodeLabel(line, node)
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		if got != line {
			t.Fatalf("stamped %q into %q, want it unchanged (no label set, no value)", line, got)
		}
		return
	}
	head := line[:i] + `{node="` + node + `"`
	rest, ok := strings.CutPrefix(got, head)
	want := "}" + line[i:] // a new label set before the value
	if line[i] == '{' {
		want = "," + line[i+1:] // the stamp joins the existing set
	}
	if !ok || rest != want {
		t.Fatalf("stamped %q into %q, want %q", line, got, head+want)
	}
}
