package bad

import (
	"gullible/internal/bundle"
	"gullible/internal/telemetry"
)

// OwnCrawl violates onedriver three times: it records a bundle and a trace
// itself instead of running through sched.Run.
func OwnCrawl() {
	rec := bundle.NewRecorder(nil)
	_, _ = bundle.Finalize(nil, rec, nil, nil, nil)
	_ = telemetry.NewFlight(16)
}
