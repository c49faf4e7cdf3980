package main

import "testing"

func TestRunExhaustive(t *testing.T) {
	if err := run(2, 1, 3, "exhaustive", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedy(t *testing.T) {
	if err := run(2, 2, 3, "greedy", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnnealWithProgress(t *testing.T) {
	if err := run(2, 1, 3, "anneal", 3, 200, 7, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(2, 1, 3, "magic", 3, 0, 1, false); err == nil {
		t.Error("unknown mode should fail")
	}
	// An ensemble that cannot fit: 4 members x 24 cores on 1 node.
	if err := run(4, 1, 1, "exhaustive", 3, 0, 1, false); err == nil {
		t.Error("infeasible instance should fail")
	}
}
