// Package suppressed is the wpmlint suppression fixture: a justified
// suppression stays silent, a bare one is itself a finding.
package suppressed

import (
	"time"

	"gullible/internal/telemetry"
)

// StampJustified carries a written reason: no finding at all.
func StampJustified() int64 {
	//lint:ignore wallclock fixture: replay identity does not apply here
	return time.Now().UnixNano()
}

// StampBare suppresses without saying why: the wallclock finding is
// swallowed, but the naked directive is reported under rule "suppression".
func StampBare() int64 {
	//lint:ignore wallclock
	return time.Now().UnixNano()
}

// StampTrailing suppresses from the same line, also justified.
func StampTrailing() int64 {
	return time.Now().UnixNano() //lint:ignore wallclock fixture: trailing form
}

// StampUncovered is two lines below its directive: out of range, still a
// wallclock finding.
func StampUncovered() int64 {
	//lint:ignore wallclock fixture: too far away to cover anything

	return time.Now().UnixNano()
}

// TraceJustified builds a flight recorder outside the driver with a
// written reason: no finding.
func TraceJustified() {
	//lint:ignore onedriver fixture: a suppression with its reason
	_ = telemetry.NewFlight(16)
}
