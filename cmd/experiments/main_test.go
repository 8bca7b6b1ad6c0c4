package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusnet/internal/sweep"
)

func TestRunErrors(t *testing.T) {
	if run("all", "bogus", "", "", false) == nil {
		t.Error("bad scale accepted")
	}
	if run("E99", "quick", "", "", false) == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunListAndSubset(t *testing.T) {
	if err := run("", "quick", "", "", true); err != nil {
		t.Fatal(err)
	}
	if err := run("E5", "quick", "", "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run("E5,E10", "quick", dir, "", false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E5.md", "E5.csv", "E5.json", "E10.md", "E10.csv", "E10.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestRunWritesDocument(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "tables.md")
	if err := run("E5,E10", "quick", "", doc, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Experiment tables", "### E5", "### E10"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("document missing %q", want)
		}
	}
}

// TestResultsMatchCommittedCSVs is the results gate: it regenerates every
// experiment at full scale and compares each CSV byte for byte with the
// one committed under results/. A change that means to move a cell
// regenerates the tables with
//
//	go run ./cmd/experiments -out results
//
// and commits the new CSV with the change, where review sees it.
func TestResultsMatchCommittedCSVs(t *testing.T) {
	dir := t.TempDir()
	if err := run("all", "full", dir, "", false); err != nil {
		t.Fatal(err)
	}
	for _, e := range sweep.All() {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", e.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			n, g, w := firstDiff(got, want)
			t.Errorf("%s.csv differs from results/ at line %d:\n got %s\nwant %s", e.ID, n, g, w)
		}
	}
}

// firstDiff returns the number of the first line where got and want
// differ, counting from 1, and that line of each ("" past its end).
func firstDiff(got, want []byte) (n int, g, w string) {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
		n++
	}
	if n < len(gl) {
		g = gl[n]
	}
	if n < len(wl) {
		w = wl[n]
	}
	return n + 1, g, w
}
