//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ensemblekit/internal/campaign"
)

func TestSameSeedSameBodies(t *testing.T) {
	for _, wl := range workloads {
		for client := 0; client < 2; client++ {
			for k := 0; k < 40; k++ {
				a, b := wl.gen(7, client, k), wl.gen(7, client, k)
				if a.node != b.node || !bytes.Equal(a.sweep.body(), b.sweep.body()) {
					t.Fatalf("%s: client %d k %d: two calls differ", wl.name, client, k)
				}
			}
		}
		a, b := wl.prime(7), wl.prime(7)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: prime returned %d and %d requests", wl.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].sweep.body(), b[i].sweep.body()) {
				t.Fatalf("%s: prime request %d differs between calls", wl.name, i)
			}
		}
		if bytes.Equal(wl.gen(7, 0, 0).sweep.body(), wl.gen(8, 0, 0).sweep.body()) {
			t.Errorf("%s: seeds 7 and 8 generate the same first body", wl.name)
		}
	}
}

// The body must decode as the server's request type, and expand to the
// same jobs as the sweep the reference evaluation runs.
func TestBodyIsTheSweep(t *testing.T) {
	for _, wl := range workloads {
		req := wl.gen(3, 1, 4)
		var cr campaign.CampaignRequest
		dec := json.NewDecoder(bytes.NewReader(req.sweep.body()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cr); err != nil {
			t.Fatalf("%s: body does not decode: %v", wl.name, err)
		}
		sw := req.sweep.sweep()
		if cr.Name != sw.Name || cr.Steps != sw.Steps || cr.Sim != sw.Sim ||
			len(cr.Configs) != 1 || cr.Configs[0] != "table2" || len(cr.Seeds) != len(sw.Seeds) {
			t.Fatalf("%s: body %s does not describe sweep %+v", wl.name, req.sweep.body(), sw)
		}
		for i := range cr.Seeds {
			if cr.Seeds[i] != sw.Seeds[i] {
				t.Fatalf("%s: seed %d: body %d, sweep %d", wl.name, i, cr.Seeds[i], sw.Seeds[i])
			}
		}
		cands, err := sw.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		jobs := 0
		for _, c := range cands {
			jobs += len(c.Specs)
		}
		if len(cands) != sweepCandidates || jobs != sweepJobs {
			t.Fatalf("%s: %d candidates, %d jobs; want %d, %d", wl.name, len(cands), jobs, sweepCandidates, sweepJobs)
		}
	}
}

func specHashes(t *testing.T, s sweepSpec) []string {
	t.Helper()
	cands, err := s.sweep().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range cands {
		for _, js := range c.Specs {
			h, err := js.Hash()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, h)
		}
	}
	return out
}

func TestColdWorkloadsNeverRepeatASpecHash(t *testing.T) {
	for _, name := range []string{"shallow-cold", "deep-cold"} {
		wl, _ := workloadByName(name)
		seen := make(map[string]string)
		note := func(who string, r request) {
			for _, h := range specHashes(t, r.sweep) {
				if prev, dup := seen[h]; dup {
					t.Fatalf("%s: %s repeats a spec hash of %s", name, who, prev)
				}
				seen[h] = who
			}
		}
		for _, r := range wl.prime(5) {
			note("set-up "+r.sweep.Name, r)
		}
		for client := 0; client < 2; client++ {
			for k := 0; k < 30; k++ {
				r := wl.gen(5, client, k)
				note(r.sweep.Name, r)
			}
		}
	}
}

func TestWarmCyclesExactlySixteenPrimedSweeps(t *testing.T) {
	wl, _ := workloadByName("warm")
	primed := make(map[string]bool)
	for _, r := range wl.prime(9) {
		primed[string(r.sweep.body())] = true
	}
	if len(primed) != warmSweeps {
		t.Fatalf("prime has %d distinct sweeps, want %d", len(primed), warmSweeps)
	}
	for client := 0; client < 2; client++ {
		used := make(map[string]bool)
		for k := 0; k < 3*warmSweeps; k++ {
			body := string(wl.gen(9, client, k).sweep.body())
			if !primed[body] {
				t.Fatalf("client %d k %d posts a sweep set-up did not prime", client, k)
			}
			if k >= warmSweeps && body != string(wl.gen(9, client, k-warmSweeps).sweep.body()) {
				t.Fatalf("client %d k %d is not its k-%d", client, k, warmSweeps)
			}
			used[body] = true
		}
		if len(used) != warmSweeps {
			t.Fatalf("client %d cycles %d sweeps, want %d", client, len(used), warmSweeps)
		}
	}
}

func TestPoolOddKRepostsOnAnotherNode(t *testing.T) {
	wl, _ := workloadByName("pool3-mix")
	if wl.nodes != poolNodes {
		t.Fatalf("pool3-mix runs on %d nodes", wl.nodes)
	}
	seen := make(map[string]bool)
	for k := 0; k < 24; k++ {
		r := wl.gen(2, 1, k)
		if r.node != k%poolNodes {
			t.Fatalf("k %d goes to node %d, want %d", k, r.node, k%poolNodes)
		}
		body := string(r.sweep.body())
		if k%2 == 0 {
			if seen[body] {
				t.Fatalf("even k %d repeats an earlier sweep", k)
			}
			seen[body] = true
			continue
		}
		prev := wl.gen(2, 1, k-1)
		if body != string(prev.sweep.body()) {
			t.Fatalf("odd k %d does not re-post k-1", k)
		}
		if r.node == prev.node {
			t.Fatalf("odd k %d re-posts on the node that ran k-1", k)
		}
	}
}
