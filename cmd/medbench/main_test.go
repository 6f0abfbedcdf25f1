package main

import (
	"strings"
	"testing"
)

func TestRunQuickAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick harness run still takes ~1s")
	}
	if err := run("all", "quick"); err != nil {
		t.Fatalf("run(all, quick): %v", err)
	}
}

func TestRunSelection(t *testing.T) {
	if err := run("e1,E3", "quick"); err != nil {
		t.Fatalf("run(e1,E3): %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run("e42", "quick"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("bad experiment id: %v", err)
	}
	if err := run("all", "enormous"); err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Errorf("bad scale: %v", err)
	}
}
