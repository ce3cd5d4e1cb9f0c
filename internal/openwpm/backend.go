package openwpm

// Backend is the durable half of Storage: every record the store accepts —
// after sanitisation and after the fault filter, the same stream Observer
// sees — is also offered to the backend as an append. The in-memory tables
// on Storage stay authoritative for analysis (package experiments reads them
// directly); a backend's job is to make the same stream survive a process
// crash. Package wal implements the durable backend; MemBackend is the
// explicit "memory only" backend that preserves the pre-backend behaviour
// byte-for-byte.
//
// Append methods return an error so a durable backend can report disk
// faults; Storage counts failures (telemetry + BackendErrors) and keeps the
// in-memory copy regardless — a failing disk degrades durability, never the
// live crawl.
type Backend interface {
	AppendVisit(VisitRecord) error
	AppendCrash(CrashRecord) error
	AppendRequest(RequestRecord) error
	AppendCookie(CookieEntry) error
	AppendJSCall(JSCall) error
	// AppendScriptFile receives one accepted content write (url may repeat
	// for deduplicated content; sha identifies the body).
	AppendScriptFile(url, sha, content, ctype string) error
	AppendTamper(TamperRecord) error
	// AppendDrop records a storage-fault drop with the visit context that
	// owned the lost write, so replay can attribute drops deterministically.
	AppendDrop(table, site string) error
	// AppendCheckpoint marks a durable site boundary: outcome is the site
	// just accounted and trace is an opaque flight-recorder delta blob (nil
	// when telemetry is off). recorder is always nil: a recorder's state
	// rides in its spooled visits. Recovery
	// truncates the log back to the last checkpoint, so everything before a
	// checkpoint is committed and everything after it is re-crawled.
	AppendCheckpoint(outcome SiteOutcome, recorder, trace []byte) error
	// Flush forces buffered appends down to the backing store.
	Flush() error
	// Close flushes and releases the backend.
	Close() error
}

// MemBackend is the explicit in-memory backend: Storage's own tables are the
// store, so every append is a no-op. It exists so "memory" and "wal" are the
// same kind of thing to configuration code, and so the backend-attached path
// is exercised even when durability is off.
type MemBackend struct{}

func (MemBackend) AppendVisit(VisitRecord) error     { return nil }
func (MemBackend) AppendCrash(CrashRecord) error     { return nil }
func (MemBackend) AppendRequest(RequestRecord) error { return nil }
func (MemBackend) AppendCookie(CookieEntry) error    { return nil }
func (MemBackend) AppendJSCall(JSCall) error         { return nil }
func (MemBackend) AppendScriptFile(url, sha, content, ctype string) error {
	return nil
}
func (MemBackend) AppendTamper(TamperRecord) error                    { return nil }
func (MemBackend) AppendDrop(table, site string) error                { return nil }
func (MemBackend) AppendCheckpoint(SiteOutcome, []byte, []byte) error { return nil }
func (MemBackend) Flush() error                                       { return nil }
func (MemBackend) Close() error                                       { return nil }
