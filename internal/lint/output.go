package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// slashPath normalises a finding's file path for SARIF output: cleaned and
// forward-slashed, so SARIF documents are byte-identical across platforms.
func slashPath(p string) string { return filepath.ToSlash(filepath.Clean(p)) }

// The sarif* types model the minimal SARIF 2.1.0 subset wpmlint emits: one
// run, the rule table from the registry, and one result per finding. Field
// order is fixed by the struct definitions, so output is deterministic and
// golden-testable.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log. The rule table carries
// every registered rule plus the suppression pseudo-rule, each with its
// one-line doc, so SARIF viewers can show what a finding means without the
// source tree.
func WriteSARIF(w io.Writer, findings []Finding) error {
	drv := sarifDriver{
		Name:           "wpmlint",
		InformationURI: "DESIGN.md#static-analysis",
	}
	for _, r := range Rules {
		drv.Rules = append(drv.Rules, sarifRule{ID: r.Name, ShortDescription: sarifMessage{Text: r.Doc}})
	}
	drv.Rules = append(drv.Rules, sarifRule{ID: suppressionRule, ShortDescription: sarifMessage{Text: RuleDoc(suppressionRule)}})

	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: slashPath(f.Pos.Filename)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: drv}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
