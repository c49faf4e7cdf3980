package main

import "testing"

func TestRunExhaustive(t *testing.T) {
	if err := run(2, 1, 3, "exhaustive", "analytic", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedy(t *testing.T) {
	if err := run(2, 2, 3, "greedy", "analytic", 3, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnnealWithProgress(t *testing.T) {
	if err := run(2, 1, 3, "anneal", "analytic", 3, 200, 7, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimulatedObjective(t *testing.T) {
	if err := run(1, 1, 2, "exhaustive", "simulated", 2, 0, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(2, 1, 3, "magic", "analytic", 3, 0, 1, false); err == nil {
		t.Error("unknown mode should fail")
	}
	if err := run(2, 1, 3, "exhaustive", "oracle", 3, 0, 1, false); err == nil {
		t.Error("unknown objective should fail")
	}
	// An ensemble that cannot fit: 4 members x 24 cores on 1 node.
	if err := run(4, 1, 1, "exhaustive", "analytic", 3, 0, 1, false); err == nil {
		t.Error("infeasible instance should fail")
	}
}
