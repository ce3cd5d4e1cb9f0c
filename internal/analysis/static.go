// Package analysis implements the paper's two bot-detector identification
// methods (Sec. 4.1): static analysis of collected JavaScript (with
// deobfuscation preprocessing and the Appendix-B pattern set) and dynamic
// analysis of recorded JavaScript calls (with honey-property iterator
// handling), plus the first-party detector attribution of Appendix A.
package analysis

import (
	"regexp"
	"strconv"
	"strings"
)

// Deobfuscate undoes straightforward obfuscation before pattern matching:
// hex and unicode string escapes are decoded and comments removed
// (Sec. 4.1.3 "Preprocessing for static analysis").
func Deobfuscate(src string) string {
	src = stripComments(src)
	src = decodeEscapes(src)
	return src
}

func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				i++
			}
			i += 2
			if i > len(src) {
				i = len(src)
			}
		case c == '"' || c == '\'':
			// copy string literals verbatim (comments inside don't count)
			q := c
			b.WriteByte(c)
			i++
			for i < len(src) && src[i] != q {
				if src[i] == '\\' && i+1 < len(src) {
					b.WriteByte(src[i])
					i++
				}
				b.WriteByte(src[i])
				i++
			}
			if i < len(src) {
				b.WriteByte(q)
				i++
			}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func decodeEscapes(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	for i := 0; i < len(src); {
		if src[i] == '\\' && i+3 < len(src) && src[i+1] == 'x' {
			if n, err := strconv.ParseUint(src[i+2:i+4], 16, 8); err == nil {
				b.WriteByte(byte(n))
				i += 4
				continue
			}
		}
		if src[i] == '\\' && i+5 < len(src) && src[i+1] == 'u' {
			if n, err := strconv.ParseUint(src[i+2:i+6], 16, 32); err == nil {
				b.WriteRune(rune(n))
				i += 6
				continue
			}
		}
		b.WriteByte(src[i])
		i++
	}
	return b.String()
}

// Pattern is one static-analysis pattern (Appendix B, Table 13).
type Pattern struct {
	Name string
	// HasFalsePositives records the paper's Table 13 finding for this
	// pattern.
	HasFalsePositives bool
	match             func(src string) bool
}

// Match tests a (preprocessed) script.
func (p Pattern) Match(src string) bool { return p.match(src) }

var reBracketWebdriver = regexp.MustCompile(`navigator\[["']webdriver["']\]`)

// StaticPatterns is the evaluated pattern set of Table 13, in order.
var StaticPatterns = []Pattern{
	{Name: "webdriver", HasFalsePositives: true,
		match: func(s string) bool { return strings.Contains(s, "webdriver") }},
	{Name: "instrumentFingerprintingApis",
		match: func(s string) bool { return strings.Contains(s, "instrumentFingerprintingApis") }},
	{Name: "getInstrumentJS",
		match: func(s string) bool { return strings.Contains(s, "getInstrumentJS") }},
	{Name: "jsInstruments",
		match: func(s string) bool { return strings.Contains(s, "jsInstruments") }},
	{Name: "(?<!_|-)webdriver(?!_|-)", HasFalsePositives: true,
		match: matchWebdriverNoSnake},
	{Name: "navigator.webdriver",
		match: func(s string) bool { return strings.Contains(s, "navigator.webdriver") }},
	{Name: `navigator\[["']webdriver["']\]`,
		match: func(s string) bool { return reBracketWebdriver.MatchString(s) }},
}

// matchWebdriverNoSnake emulates the lookaround pattern: "webdriver" not
// preceded or followed by '_' or '-'.
func matchWebdriverNoSnake(s string) bool {
	for i := 0; ; {
		j := strings.Index(s[i:], "webdriver")
		if j < 0 {
			return false
		}
		j += i
		okBefore := j == 0 || (s[j-1] != '_' && s[j-1] != '-')
		after := j + len("webdriver")
		okAfter := after >= len(s) || (s[after] != '_' && s[after] != '-')
		if okBefore && okAfter {
			return true
		}
		i = j + 1
	}
}

// OpenWPMMarkers are the properties unique to OpenWPM's JS instrument.
var OpenWPMMarkers = []string{"jsInstruments", "instrumentFingerprintingApis", "getInstrumentJS"}

// StaticResult is the static classification of one script.
type StaticResult struct {
	SeleniumDetector bool     // context-aware webdriver access
	OpenWPMProps     []string // OpenWPM markers referenced
	PatternHits      []string
	// Tamper is the AST-grade report behind the classification (tamper.go).
	Tamper TamperReport
}

// AnalyzeStatic classifies a script. The AST tamper pass (tamper.go) is
// primary: SeleniumDetector and OpenWPMProps come from its rule hits, which
// fold constructed property names the regexes cannot see. The Table 13
// pattern hits are still computed over the deobfuscated source — they are
// the paper's evaluated artifact — and double as the fallback signal when a
// script does not parse. The tamper report comes from SharedAnalyze, so a
// body the crawl already parsed or analysed is not parsed again; the report
// is shared with other callers and must not be modified.
func AnalyzeStatic(src string) StaticResult {
	clean := Deobfuscate(src)
	var r StaticResult
	for _, p := range StaticPatterns {
		if p.Match(clean) {
			r.PatternHits = append(r.PatternHits, p.Name)
		}
	}
	r.Tamper = SharedAnalyze(src)
	r.SeleniumDetector = r.Tamper.Has(RuleWebdriverProbe)
	markers := map[string]bool{}
	for _, f := range r.Tamper.Findings {
		if f.Rule == RuleOpenWPMMarker {
			markers[f.Detail] = true
		}
	}
	for _, m := range OpenWPMMarkers {
		if markers[m] {
			r.OpenWPMProps = append(r.OpenWPMProps, m)
		}
	}
	return r
}
