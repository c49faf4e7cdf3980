package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// paperConfig is the configuration cmd/experiments runs under its flag
// defaults (-trials 5 -steps 0 -jitter 0.02 -seed 1).
func paperConfig() Config {
	return Config{Trials: 5, Jitter: 0.02, BaseSeed: 1}.Defaults()
}

// TestGolden runs every registered study at paper scale and under
// Quick() and holds the printed output (what `cmd/experiments -exp all`
// and `-exp all -quick` print) to testdata/all.golden and
// testdata/all-quick.golden. testdata/digests.golden holds, per scale
// and study, the SHA-256 of the JSON encoding of the full-precision
// result: JSON round-trips a float64 exactly, so a last-bit drift the
// printed rounding hides still fails. Regenerate all three with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	var digests bytes.Buffer
	for _, scale := range []struct {
		name, file string
		cfg        Config
	}{
		{"paper", "all.golden", paperConfig()},
		{"quick", "all-quick.golden", Quick()},
	} {
		var out bytes.Buffer
		for _, s := range Studies {
			v, blocks, err := s.Run(scale.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", scale.name, s.Name, err)
			}
			for _, b := range blocks {
				fmt.Fprintln(&out, b)
			}
			js, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s %s: encoding the result: %v", scale.name, s.Name, err)
			}
			fmt.Fprintf(&digests, "%s %s %x\n", scale.name, s.Name, sha256.Sum256(js))
		}
		checkGolden(t, scale.file, out.Bytes())
	}
	checkGolden(t, "digests.golden", digests.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs from line %d:\ngot:  %q\nwant: %q\n(regenerate with -update if the change is intended)", path, i+1, gl, wl)
		}
	}
}
