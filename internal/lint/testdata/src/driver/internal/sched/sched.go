// Package sched is the onedriver fixture's driver: a package whose
// directory ends in internal/sched may record bundles and traces.
package sched

import (
	"gullible/internal/bundle"
	"gullible/internal/telemetry"
)

// Run records as the crawl driver does: no finding.
func Run() {
	_ = bundle.NewRecorder(nil)
	_ = telemetry.NewFlight(16)
}
