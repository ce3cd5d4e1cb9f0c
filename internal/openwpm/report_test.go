package openwpm

import (
	"strings"
	"testing"
)

// Absorb on a zero-value report must initialise ErrorClasses itself.
func TestReportAbsorbZeroValueReceiver(t *testing.T) {
	r := &CrawlReport{}
	r.Absorb(&SiteVisit{ErrorClass: "transient"}, nil)
	if r.Sites != 1 || r.Completed != 1 || r.ErrorClasses["transient"] != 1 {
		t.Fatalf("absorb into zero value: %+v", r)
	}
}

// Salvaged and skipped sites are different failure modes — salvaged kept
// partial records, skipped never produced any — and both the rates and the
// rendered report must keep them apart.
func TestReportSalvagedVersusSkipped(t *testing.T) {
	r := NewCrawlReport()
	r.Sites, r.Completed, r.Salvaged, r.Failed, r.Skipped = 10, 6, 2, 1, 1

	if got := r.CompletionRate(); got != 0.8 {
		t.Fatalf("CompletionRate = %v, want 0.8 (completed+salvaged)", got)
	}
	if got := r.FullCompletionRate(); got != 0.6 {
		t.Fatalf("FullCompletionRate = %v, want 0.6 (completed only)", got)
	}
	s := r.String()
	if !strings.Contains(s, "completion 80.0%, full 60.0%") {
		t.Fatalf("String() lost the rate distinction:\n%s", s)
	}
	if !strings.Contains(s, "2 sites salvaged (partial records kept)") ||
		!strings.Contains(s, "1 sites skipped (never visited, no records)") {
		t.Fatalf("String() folds salvaged and skipped together:\n%s", s)
	}

	// No data loss → no data-loss line: the callout must not cry wolf.
	clean := NewCrawlReport()
	clean.Sites, clean.Completed = 3, 3
	if strings.Contains(clean.String(), "data loss") {
		t.Fatalf("clean report prints a data-loss line:\n%s", clean.String())
	}

	// Zero-site reports must not divide by zero.
	empty := &CrawlReport{}
	if empty.CompletionRate() != 0 || empty.FullCompletionRate() != 0 {
		t.Fatal("empty report rates not zero")
	}
}
