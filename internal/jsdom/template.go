package jsdom

import (
	"reflect"
	"slices"
	"sort"
	"sync"

	"gullible/internal/minjs"
)

// Realm templates. Every realm of one configuration starts out the same
// apart from a few values its URL and window index decide, so each
// configuration is constructed once, as a template (minjs.Template), and
// every realm is a stamp of it: one copy of the template's object graph,
// with those values written in. The stamp's natives are the template's:
// each finds its realm through the DOM its function object carries
// (realmOf), and the stamp points those at the new DOM.

// maxTemplates bounds the template cache. A crawl uses one or two
// configurations; the fingerprint tables build about a dozen.
const maxTemplates = 16

// realmTemplate is the template of one configuration.
type realmTemplate struct {
	key  Config // WindowIndex zeroed, slices cloned
	once sync.Once
	tpl  *minjs.Template
	// protoNames are the DOM's interface prototypes, sorted; their objects
	// follow domRoots among the template's extra roots.
	protoNames []string
}

// templates is the process-wide cache, most recently used first.
var templates struct {
	sync.Mutex
	mru []*realmTemplate
}

// templateFor returns the template for cfg's configuration, constructing
// it on first use. Concurrent callers of one new configuration wait for a
// single construction.
func templateFor(cfg Config) *realmTemplate {
	cfg.WindowIndex = 0
	templates.Lock()
	i := slices.IndexFunc(templates.mru, func(t *realmTemplate) bool { return reflect.DeepEqual(t.key, cfg) })
	var t *realmTemplate
	if i >= 0 {
		t = templates.mru[i]
		copy(templates.mru[1:i+1], templates.mru[:i])
		templates.mru[0] = t
	} else {
		cfg.Languages, cfg.Fonts = slices.Clone(cfg.Languages), slices.Clone(cfg.Fonts)
		t = &realmTemplate{key: cfg}
		if len(templates.mru) == maxTemplates {
			templates.mru = templates.mru[:maxTemplates-1]
		}
		templates.mru = slices.Insert(templates.mru, 0, t)
	}
	templates.Unlock()
	t.once.Do(t.construct)
	return t
}

// domRoots points at the DOM's object fields, in the order the template
// keeps them as extra roots: the objects a stamp needs by name, and those
// only natives hand out.
func (d *DOM) domRoots() []**minjs.Object {
	return []**minjs.Object{&d.Navigator, &d.Screen, &d.Document, &d.Location, &d.languagesObj, &d.plugins, &d.mimeTypes, &d.fontList}
}

func (t *realmTemplate) construct() {
	d := build(t.key, &NopHost{}, "")
	for name := range d.Protos {
		t.protoNames = append(t.protoNames, name)
	}
	sort.Strings(t.protoNames)
	var roots []*minjs.Object
	for _, f := range d.domRoots() {
		roots = append(roots, *f)
	}
	for _, name := range t.protoNames {
		roots = append(roots, d.Protos[name])
	}
	tpl, err := minjs.NewTemplate(d.It, d, roots...)
	if err != nil {
		panic("jsdom: " + err.Error())
	}
	t.tpl = tpl
}

// stamp returns a realm of cfg at url copied from t.
func (t *realmTemplate) stamp(cfg Config, host Host, url string) *DOM {
	d := newDOM(cfg, host, url)
	it, roots := t.tpl.Stamp(d)
	d.It, d.Window = it, it.Global
	fields := d.domRoots()
	for i, f := range fields {
		*f = roots[i]
	}
	protos := roots[len(fields):]
	d.Protos = make(map[string]*minjs.Object, len(protos))
	for i, name := range t.protoNames {
		d.Protos[name] = protos[i]
	}

	// The values the URL and the window index decide. Construction defines
	// each of them once whatever its value, so writing the value into the
	// slot leaves every counter as construction would.
	loc, doc, pos := locationFields(url), documentFields(url), d.positionFields()
	setSlots(d.Location, loc[:])
	setSlots(d.Document, doc[:])
	setSlots(d.Window, pos[:])
	return d
}

// setSlots stores each field's value in o's own data property of that key
// without counting a write.
func setSlots(o *minjs.Object, fields []field) {
	for _, f := range fields {
		o.GetOwn(f.key).Value = f.v
	}
}
