package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

func sampleDiags() []analysis.Diagnostic {
	return []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/repo/internal/bch/bch.go", Line: 10, Column: 2},
			Analyzer: "hotpath",
			Message:  "make allocates",
		},
		{
			Pos:      token.Position{Filename: "/repo/cmd/tool/main.go", Line: 3, Column: 5},
			Analyzer: "seedflow",
			Message:  "rand source seed derives from the wall clock (time.Now)",
		},
	}
}

// TestFindingsRelativize pins the path handling: files under baseDir
// become slash-relative, files outside keep their absolute form, and
// secondary positions cited in a message lose the baseDir prefix.
func TestFindingsRelativize(t *testing.T) {
	fs := analysis.Findings(sampleDiags(), "/repo")
	if fs[0].File != "internal/bch/bch.go" || fs[1].File != "cmd/tool/main.go" {
		t.Fatalf("relativized files = %q, %q", fs[0].File, fs[1].File)
	}
	out := analysis.Findings(sampleDiags(), "/elsewhere")
	if out[0].File != "/repo/internal/bch/bch.go" {
		t.Fatalf("outside baseDir: file = %q, want absolute", out[0].File)
	}

	cited := []analysis.Diagnostic{{
		Pos:      token.Position{Filename: "/repo/internal/obs/obs.go", Line: 7, Column: 1},
		Analyzer: "atomicfield",
		Message:  "seq is accessed with sync/atomic at /repo/internal/obs/ring.go:18; /repo2/x.go:1 stays",
	}}
	want := "seq is accessed with sync/atomic at internal/obs/ring.go:18; /repo2/x.go:1 stays"
	for _, base := range []string{"/repo", "/repo/"} {
		if got := analysis.Findings(cited, base)[0].Message; got != want {
			t.Errorf("baseDir %q: message = %q, want %q", base, got, want)
		}
	}
	if got := analysis.Findings(cited, "/elsewhere")[0].Message; got != cited[0].Message {
		t.Errorf("outside baseDir: message = %q, want it unchanged", got)
	}
}

// TestWriteJSONGolden pins the exact -format json wire shape.
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, analysis.Findings(sampleDiags(), "/repo")); err != nil {
		t.Fatal(err)
	}
	want := `{
  "version": 1,
  "findings": [
    {
      "file": "internal/bch/bch.go",
      "line": 10,
      "column": 2,
      "analyzer": "hotpath",
      "message": "make allocates"
    },
    {
      "file": "cmd/tool/main.go",
      "line": 3,
      "column": 5,
      "analyzer": "seedflow",
      "message": "rand source seed derives from the wall clock (time.Now)"
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteJSONEmpty pins the no-findings shape: an empty array, not
// null, so downstream jq never trips on the clean case.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version  int                `json:"version"`
		Findings []analysis.Finding `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Findings == nil || len(rep.Findings) != 0 {
		t.Fatalf("empty report = %+v, want version 1 with empty findings array", rep)
	}
	if bytes.Contains(buf.Bytes(), []byte("null")) {
		t.Fatalf("empty report serializes null: %s", buf.String())
	}
}

// TestWriteSARIFShape checks the SARIF 2.1.0 schema shape code-scanning
// upload requires: version, one run, driver name, one rule per
// analyzer, and per-result ruleId/message/location.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteSARIF(&buf, analysis.Findings(sampleDiags(), "/repo"), analysis.All()); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, ok := log["$schema"].(string); !ok || s == "" {
		t.Errorf("$schema missing")
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "meccvet" {
		t.Errorf("driver name = %v, want meccvet", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(analysis.All()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(rules), len(analysis.All()))
	}
	ruleIDs := make(map[string]bool)
	for _, r := range rules {
		ruleIDs[r.(map[string]any)["id"].(string)] = true
	}
	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	first := results[0].(map[string]any)
	if !ruleIDs[first["ruleId"].(string)] {
		t.Errorf("result ruleId %v not among declared rules", first["ruleId"])
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri := loc["artifactLocation"].(map[string]any)["uri"]; uri != "internal/bch/bch.go" {
		t.Errorf("artifact uri = %v", uri)
	}
	if line := loc["region"].(map[string]any)["startLine"]; line != float64(10) {
		t.Errorf("startLine = %v, want 10", line)
	}
}

// TestBaselineRoundtrip pins the baseline workflow: accept the current
// findings, survive a write/load cycle, match on (file, analyzer,
// message) while ignoring line drift, and still catch genuinely new
// findings — including a second instance of a known one.
func TestBaselineRoundtrip(t *testing.T) {
	findings := analysis.Findings(sampleDiags(), "/repo")
	b := analysis.NewBaseline(findings)

	path := filepath.Join(t.TempDir(), "lint.baseline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	if got := loaded.Filter(findings); len(got) != 0 {
		t.Fatalf("baseline does not absorb its own findings: %v", got)
	}

	// Line drift must not break the match.
	drifted := make([]analysis.Finding, len(findings))
	copy(drifted, findings)
	drifted[0].Line += 40
	if got := loaded.Filter(drifted); len(got) != 0 {
		t.Fatalf("line drift broke the baseline match: %v", got)
	}

	// A new finding and a duplicate of a known one must both surface.
	extra := append(drifted, analysis.Finding{
		File: "internal/sim/sim.go", Line: 9, Analyzer: "determinism", Message: "time.Now in scope",
	}, drifted[0])
	got := loaded.Filter(extra)
	if len(got) != 2 {
		t.Fatalf("Filter kept %d findings, want 2 (the new one and the duplicate): %v", len(got), got)
	}

	// A missing baseline file is an error, not an empty baseline: a
	// mistyped -baseline path must not silently pass CI.
	if _, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("LoadBaseline on a missing file succeeded, want error")
	}
}
