package faults

import "gullible/internal/httpsim"

// PageCursor locates storage writes on the page being written: the page is
// the URL of the latest main-frame request, and n is the write's 1-based
// index in its table since that request. Every visit, retry and redirect
// begins with a main-frame request, so a write's position never depends on
// the pages, sites, shards or resumes before it. The injector keys storage
// faults on it, and the bundle recorder and replay transport archive and
// replay drops by it.
//
// A PageCursor follows one transport's request stream; it is not safe for
// concurrent use.
type PageCursor struct {
	page   string
	writes map[string]int
}

// Observe starts a new page when req is a main-frame request.
func (c *PageCursor) Observe(req *httpsim.Request) {
	if req.Type == httpsim.TypeMainFrame {
		c.page = req.URL
		clear(c.writes)
	}
}

// Next counts one write to table and returns its position.
func (c *PageCursor) Next(table string) (page string, n int) {
	if c.writes == nil {
		c.writes = map[string]int{}
	}
	c.writes[table]++
	return c.page, c.writes[table]
}
