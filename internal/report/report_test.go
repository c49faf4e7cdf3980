package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Demo", "config", "makespan", "E")
	tb.AddRow("C1.5", 384.75, 0.955)
	tb.AddRow("C1.4", 475.5, 0.895)
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## Demo", "config", "makespan", "C1.5", "384.8", "0.9550"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("v", 1.5)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nv,1.500\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		0.0000012: "1.200e-06",
		0.25:      "0.2500",
		3.14159:   "3.142",
		1234.5:    "1234.5",
		2.5e7:     "2.500e+07",
		-0.25:     "-0.2500",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatFloat(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
}

func TestGantt(t *testing.T) {
	g := NewGantt("Member timeline", 40)
	sim := g.AddRow("sim")
	ana := g.AddRow("analysis")
	g.AddSpan(sim, 0, 10, 'S')
	g.AddSpan(sim, 10, 11, 'W')
	g.AddSpan(ana, 11, 12, 'R')
	g.AddSpan(ana, 12, 20, 'A')
	out := g.String()
	for _, want := range []string{"Member timeline", "sim", "analysis", "S", "W", "R", "A"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	// Spans outside rows or inverted are ignored without panic.
	g.AddSpan(99, 0, 1, 'x')
	g.AddSpan(sim, 5, 5, 'x')
	_ = g.String()
}

func TestGanttEmpty(t *testing.T) {
	g := NewGantt("empty", 40)
	g.AddRow("r")
	if !strings.Contains(g.String(), "empty timeline") {
		t.Error("empty gantt should say so")
	}
}

func TestBarChart(t *testing.T) {
	b := NewBarChart("F per config", 20)
	b.AddBar("C1.5", 0.02)
	b.AddBar("C1.4", 0.01)
	b.AddBar("neg", -0.5)
	out := b.String()
	for _, want := range []string{"F per config", "C1.5", "0.0200", "0.0100", "-0.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The largest value gets the full width; half value gets about half.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	count := func(s string) int { return strings.Count(s, "#") }
	if count(lines[1]) != 20 {
		t.Errorf("max bar = %d hashes, want 20:\n%s", count(lines[1]), out)
	}
	if c := count(lines[2]); c < 8 || c > 12 {
		t.Errorf("half bar = %d hashes, want ~10", c)
	}
	if count(lines[3]) != 0 {
		t.Errorf("negative bar should be empty:\n%s", out)
	}
	// Zero width defaults; empty chart renders without panic.
	_ = NewBarChart("", 0).String()
}
