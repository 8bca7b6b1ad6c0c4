package sweep

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 33 {
		t.Fatalf("registry has %d experiments, want 33", len(all))
	}
	// Sorted by numeric ID and all present.
	for i, e := range all {
		want := i + 1
		if idNum(e.ID) != want {
			t.Errorf("position %d holds %s, want E%d", i, e.ID, want)
		}
	}
	for _, id := range []string{"E1", "E7", "E14"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID should reject unknown ids")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(Quick)
			if tb == nil {
				t.Fatal("nil table")
			}
			if tb.ID != e.ID {
				t.Errorf("table ID %q, want %q", tb.ID, e.ID)
			}
			if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("experiment produced an empty table: %+v", tb)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("row arity %d, want %d: %v", len(row), len(tb.Columns), row)
				}
			}
		})
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", PaperRef: "ref", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2.5)
	tb.AddNote("note %d", 7)
	md := tb.Markdown()
	for _, want := range []string{"### T — demo", "| a | b |", "| 1 | 2.5 |", "> note 7"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"x", "y"}}
	tb.AddRow("plain", `quote"and,comma`)
	csv := tb.CSV()
	if !strings.Contains(csv, `plain,"quote""and,comma"`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "x,y\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
}

// TestTableCSVDropsTimedColumns checks that the wall-clock columns stay in
// Markdown and JSON but leave the CSV.
func TestTableCSVDropsTimedColumns(t *testing.T) {
	tb := &Table{Columns: []string{"x", "wall ms"}, Timed: 1}
	tb.AddRow(4, 17)
	if csv := tb.CSV(); csv != "x\n4\n" {
		t.Errorf("CSV keeps the timed column:\n%s", csv)
	}
	if md := tb.Markdown(); !strings.Contains(md, "| 4 | 17 |") {
		t.Errorf("Markdown lost the timed column:\n%s", md)
	}
	if js, err := tb.JSON(); err != nil || !strings.Contains(string(js), `"wall ms"`) {
		t.Errorf("JSON lost the timed column (%v):\n%s", err, js)
	}
}

func TestTableText(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Columns: []string{"col", "value"}}
	tb.AddRow("row1", 10)
	txt := tb.Text()
	if !strings.Contains(txt, "col") || !strings.Contains(txt, "row1") {
		t.Errorf("text render missing content:\n%s", txt)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		-2:      "-2",
		2.5:     "2.5",
		1.0 / 3: "0.3333",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	register(Experiment{ID: "E1"})
}
