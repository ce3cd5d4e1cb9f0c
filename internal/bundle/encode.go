package bundle

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
)

// The canonical encoder writes exactly the bytes of
// json.MarshalIndent(b, "", " "), faster. encoding/json stays the schema:
// every top-level field value, every visit and every body-pool key and
// value is still produced by it. The bundle assembles the document around
// those values itself, for two reasons: visits are encoded in parallel in
// GOMAXPROCS contiguous chunks, and indentation comes from appendIndented
// rather than json.Indent, whose byte-at-a-time scanner costs about twice
// what Marshal does on a large bundle.

// canonicalParts encodes b with its Digest replaced by digest. The document
// is the concatenation of the returned parts. Top-level fields are written
// in Bundle's declaration order under its omitempty rules
// (TestBundleFieldsMatchEncoder pins the list).
func (b *Bundle) canonicalParts(digest string) ([][]byte, error) {
	chunks := visitChunks(len(b.Visits))
	parts := make([][]byte, len(chunks)+2)
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			parts[i+1], errs[i] = canonicalVisits(b.Visits, lo, hi)
		}(i, c[0], c[1])
	}

	// the fields around the visits are encoded while the visit chunks run
	var head, tail valueEncoder
	head.out = append(head.out, "{\n \"manifest\": "...)
	headErr := head.value(&b.Manifest, 1)
	if headErr == nil {
		headErr = head.field("config", &b.Config)
	}
	if headErr == nil && len(b.Sites) > 0 {
		headErr = head.field("sites", &b.Sites)
	}
	var tailErr error
	if len(b.Visits) > 0 {
		head.key("visits")
		head.out = append(head.out, '[')
		tail.out = append(tail.out, "\n ]"...)
	}
	if len(b.Crashes) > 0 {
		tailErr = tail.field("crashes", &b.Crashes)
	}
	if tailErr == nil && len(b.Bodies) > 0 {
		tailErr = tail.canonicalBodies(b.Bodies)
	}
	if tailErr == nil && b.Report != nil {
		tailErr = tail.field("report", b.Report)
	}
	if tailErr == nil && digest != "" {
		tailErr = tail.field("digest", digest)
	}
	tail.out = append(tail.out, '\n', '}')
	wg.Wait()
	// report the first failure in document order, as json.MarshalIndent would
	for _, err := range append(append([]error{headErr}, errs...), tailErr) {
		if err != nil {
			return nil, err
		}
	}
	parts[0], parts[len(parts)-1] = head.out, tail.out
	return parts, nil
}

// visitChunks splits n visits into at most GOMAXPROCS contiguous [lo, hi)
// ranges of near-equal length.
func visitChunks(n int) [][2]int {
	k := runtime.GOMAXPROCS(0)
	if k > n {
		k = n
	}
	chunks := make([][2]int, k)
	for i := range chunks {
		chunks[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return chunks
}

// canonicalVisits encodes visits[lo:hi] as elements of the top-level
// visits array, each preceded by its separator.
func canonicalVisits(visits []Visit, lo, hi int) ([]byte, error) {
	var e valueEncoder
	for i := lo; i < hi; i++ {
		if i > 0 {
			e.out = append(e.out, ',')
		}
		e.out = appendNewline(e.out, 2)
		if err := e.value(&visits[i], 2); err != nil {
			return nil, err
		}
	}
	return e.out, nil
}

// canonicalBodies writes the body pool as encoding/json writes a map: keys
// in sorted byte order.
func (e *valueEncoder) canonicalBodies(bodies map[string]string) error {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.key("bodies")
	e.out = append(e.out, '{')
	for i, k := range keys {
		if i > 0 {
			e.out = append(e.out, ',')
		}
		e.out = appendNewline(e.out, 2)
		if err := e.value(k, 2); err != nil {
			return err
		}
		e.out = append(e.out, ':', ' ')
		if err := e.value(bodies[k], 2); err != nil {
			return err
		}
	}
	e.out = appendNewline(e.out, 1)
	e.out = append(e.out, '}')
	return nil
}

// valueEncoder appends indented encoding/json values to out.
type valueEncoder struct {
	out     []byte
	compact bytes.Buffer
	enc     *json.Encoder
}

// value appends v's json.Marshal encoding to out, laid out as a value
// nested depth levels deep. v is passed by pointer where json.MarshalIndent
// would reach it through an addressable field, so methods with pointer
// receivers apply alike.
func (e *valueEncoder) value(v any, depth int) error {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.compact)
	}
	e.compact.Reset()
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	src := e.compact.Bytes()
	// grow by doubling: append's 1.25x steps for large slices would copy a
	// multi-megabyte chunk about four times over
	if need := 2 * len(src); cap(e.out)-len(e.out) < need {
		e.out = append(make([]byte, 0, 2*cap(e.out)+need), e.out...)
	}
	e.out = appendIndented(e.out, src[:len(src)-1], depth) // drop Encode's newline
	return nil
}

// key starts a top-level member after the first: the separator, the
// indented name and the colon.
func (e *valueEncoder) key(name string) {
	e.out = append(e.out, ",\n \""...)
	e.out = append(e.out, name...)
	e.out = append(e.out, '"', ':', ' ')
}

// field writes one top-level member.
func (e *valueEncoder) field(name string, v any) error {
	e.key(name)
	return e.value(v, 1)
}

// newlines is a newline followed by enough single-space indents for any
// depth the bundle schema reaches; deeper values fall back to a loop.
const newlines = "\n                                "

func appendNewline(dst []byte, depth int) []byte {
	if depth < len(newlines) {
		return append(dst, newlines[:1+depth]...)
	}
	dst = append(dst, newlines...)
	for i := len(newlines) - 1; i < depth; i++ {
		dst = append(dst, ' ')
	}
	return dst
}

// appendIndented appends the compact JSON value src to dst laid out as
// json.Indent(dst, src, "", " ") lays out a value nested depth levels deep:
// a newline and one space per level before every member and element, ": "
// after names, and empty objects and arrays kept as {} and []. src must be
// encoding/json output (valid and free of whitespace), so strings are the
// only tokens that need scanning: each is copied whole up to its closing
// quote.
func appendIndented(dst, src []byte, depth int) []byte {
	open := false // just wrote { or [: the next byte decides whether to break
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end
			continue
		case '{', '[':
			open = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			// a number or literal runs to the next delimiter
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j
			continue
		}
		i++
	}
	return dst
}

// stringEnd returns the index just past the closing quote of the string
// that opens at src[i]: the first quote not escaped by an odd run of
// backslashes.
func stringEnd(src []byte, i int) int {
	j := i + 1
	for {
		k := bytes.IndexByte(src[j:], '"')
		if k < 0 {
			return len(src)
		}
		j += k
		n := 0
		for p := j - 1; src[p] == '\\'; p-- {
			n++
		}
		j++
		if n%2 == 0 {
			return j
		}
	}
}
