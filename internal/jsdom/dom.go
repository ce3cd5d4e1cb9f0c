package jsdom

import (
	"fmt"
	"strings"

	"gullible/internal/minjs"
)

// DOM is one realm's browser object model: a window (the realm's global
// object) plus the navigator/screen/document graph and the interface
// prototype objects that instrumentation hooks into.
type DOM struct {
	Cfg  Config
	It   *minjs.Interp
	Host Host
	URL  string

	Window    *minjs.Object
	Navigator *minjs.Object
	Screen    *minjs.Object
	Document  *minjs.Object
	Location  *minjs.Object

	// Interface prototypes, by interface name ("Navigator", "Screen", …).
	Protos map[string]*minjs.Object

	// Frames are the subframes created in this document, in creation order.
	Frames []*DOM
	// Parent is the parent DOM for subframes, nil for top documents.
	Parent *DOM

	// seal is the realm's state when script was first handed its window or
	// document (through an iframe's contentWindow or contentDocument, a
	// window's frames, or window.open); nil while it never was.
	seal *realmSeal

	// hostListeners receive events delivered through the ORIGINAL native
	// dispatchEvent — this models the extension content script listening on
	// the page. A page that shadows document.dispatchEvent sits between
	// wrapper code and this registry (the Sec. 5.1 attack).
	hostListeners map[string][]func(ev minjs.Value)

	// pageListeners holds addEventListener registrations (never fired by
	// the default crawl — OpenWPM performs no interaction, Table 1).
	pageListeners map[string][]*minjs.Object

	elementsByID map[string]*minjs.Object

	// Objects only natives hand out: no walk from the realm's roots reaches
	// them, so a realm template keeps them as extra roots.
	languagesObj *minjs.Object // navigator.languages
	plugins      *minjs.Object // navigator.plugins
	mimeTypes    *minjs.Object // navigator.mimeTypes
	fontList     *minjs.Object // document.fonts.values()

	storage map[string]string // localStorage

	webglCtx *minjs.Object // singleton per realm, nil until first getContext
	ctx2D    *minjs.Object
}

// Build returns the object model for cfg in a new realm: a stamp of the
// realm template for cfg's configuration (see template.go), with url and
// cfg.WindowIndex written in.
func Build(cfg Config, host Host, url string) *DOM {
	return templateFor(cfg).stamp(cfg, host, url)
}

// newDOM returns a DOM whose Go-side state is empty; the caller sets its
// realm and objects.
func newDOM(cfg Config, host Host, url string) *DOM {
	return &DOM{
		Cfg:           cfg,
		Host:          host,
		URL:           url,
		hostListeners: map[string][]func(minjs.Value){},
		pageListeners: map[string][]*minjs.Object{},
		elementsByID:  map[string]*minjs.Object{},
		storage:       map[string]string{},
	}
}

// build constructs the object model for cfg from nothing. It runs only to
// make realm templates: every realm script sees is a stamp. Each native it
// installs carries d in its Host field and finds its realm through realmOf,
// so the natives stay correct in every stamp.
func build(cfg Config, host Host, url string) *DOM {
	d := newDOM(cfg, host, url)
	d.It = minjs.New()
	d.Window = d.It.Global
	d.Protos = map[string]*minjs.Object{}
	d.buildPrototypes()
	d.buildNavigator()
	d.buildScreen()
	d.buildWindowProps()
	d.buildDocument()
	d.buildNet()
	d.buildDateIntl()
	return d
}

// realmOf returns the realm of the native running on it: the DOM its
// function object carries, which is not the calling realm's when script
// calls another realm's native.
func realmOf(it *minjs.Interp) *DOM { return it.Callee().Host.(*DOM) }

// native returns a native function of d's realm; fn finds the realm through
// realmOf.
func (d *DOM) native(name string, fn minjs.NativeFunc) *minjs.Object {
	f := d.It.NewNative(name, fn)
	f.Host = d
	return f
}

// illegalConstructor backs every WebIDL interface constructor.
func illegalConstructor(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	return minjs.Undefined(), it.ThrowError("TypeError", "Illegal constructor")
}

// proto creates (once) an interface prototype object plus a global
// constructor binding, mirroring how Firefox exposes WebIDL interfaces.
func (d *DOM) proto(name string) *minjs.Object {
	if p, ok := d.Protos[name]; ok {
		return p
	}
	p := minjs.NewObject(d.It.Protos.Object)
	p.Class = name + "Prototype"
	ctor := d.native(name, illegalConstructor)
	ctor.SetNonEnum("prototype", minjs.ObjectValue(p))
	p.SetNonEnum("constructor", minjs.ObjectValue(ctor))
	d.Window.SetNonEnum(name, minjs.ObjectValue(ctor))
	d.Protos[name] = p
	return p
}

// DefineGetter installs a native accessor on proto that brand-checks `this`:
// invoking the getter with a foreign receiver throws TypeError, exactly like
// a WebIDL attribute getter. Instrumentation that replaces such a getter with
// a plain script function loses this behaviour — one of the tells of Sec. 6.1.
// get receives the getter's own realm.
func (d *DOM) DefineGetter(proto *minjs.Object, class, name string, get func(d *DOM) minjs.Value) {
	getter := d.native("get "+name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if !this.IsObject() || this.Obj.Class != class {
			return minjs.Undefined(), it.ThrowError("TypeError", "'get %s' called on an object that does not implement interface %s", name, class)
		}
		return get(realmOf(it)), nil
	})
	proto.DefineAccessor(name, getter, nil, true)
}

// DefineMethod installs a native method of d's realm on proto.
func (d *DOM) DefineMethod(proto *minjs.Object, name string, fn minjs.NativeFunc) {
	proto.SetNonEnum(name, minjs.ObjectValue(d.native(name, fn)))
}

// constant is a getter body that returns v, a value the configuration
// fixes and so the same in every realm stamped from one template.
func constant(v minjs.Value) func(*DOM) minjs.Value {
	return func(*DOM) minjs.Value { return v }
}

func (d *DOM) buildNavigator() {
	it := d.It
	np := d.proto("Navigator")
	nav := minjs.NewObject(np)
	nav.Class = "Navigator"
	d.Navigator = nav

	cfg := d.Cfg
	str := func(s string) func(*DOM) minjs.Value { return constant(minjs.String(s)) }
	g := func(name string, fn func(*DOM) minjs.Value) {
		d.DefineGetter(np, "Navigator", name, fn)
	}

	g("userAgent", str(cfg.UserAgent))
	g("webdriver", constant(minjs.Boolean(cfg.Automation)))

	// navigator.languages returns a stable array object; in headless mode it
	// carries 43 spurious extra properties (Sec. 3.1.2).
	langs := make([]minjs.Value, len(cfg.Languages))
	for i, l := range cfg.Languages {
		langs[i] = minjs.String(l)
	}
	d.languagesObj = it.NewArrayP(langs...)
	for i := 0; i < cfg.HeadlessLanguageExtras; i++ {
		d.languagesObj.Set(fmt.Sprintf("mozHeadlessLocaleHint%02d", i), minjs.Int(i))
	}
	g("languages", func(d *DOM) minjs.Value { return minjs.ObjectValue(d.languagesObj) })
	lang := "en-US"
	if len(cfg.Languages) > 0 {
		lang = cfg.Languages[0]
	}
	g("language", str(lang))

	platform := "Linux x86_64"
	oscpu := "Linux x86_64"
	if cfg.OS == MacOS {
		platform = "MacIntel"
		oscpu = "Intel Mac OS X 10.15"
	}
	g("platform", str(platform))
	g("oscpu", str(oscpu))
	g("hardwareConcurrency", constant(minjs.Int(8)))
	g("appName", str("Netscape"))
	g("appVersion", str("5.0 ("+platform+")"))
	g("appCodeName", str("Mozilla"))
	g("product", str("Gecko"))
	g("productSub", str("20100101"))
	g("vendor", str(""))
	g("vendorSub", str(""))
	buildID := "20181001000000"
	g("buildID", str(buildID))
	g("doNotTrack", str("unspecified"))
	g("cookieEnabled", constant(minjs.Boolean(true)))
	g("onLine", constant(minjs.Boolean(true)))
	g("maxTouchPoints", constant(minjs.Int(0)))
	d.plugins = it.NewArrayP()
	g("plugins", func(d *DOM) minjs.Value { return minjs.ObjectValue(d.plugins) })
	d.mimeTypes = it.NewArrayP()
	g("mimeTypes", func(d *DOM) minjs.Value { return minjs.ObjectValue(d.mimeTypes) })

	d.DefineMethod(np, "javaEnabled", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Boolean(false), nil
	})
	d.DefineMethod(np, "getGamepads", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(it.NewArrayP()), nil
	})
	d.DefineMethod(np, "registerProtocolHandler", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Undefined(), nil
	})
	d.DefineMethod(np, "taintEnabled", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Boolean(false), nil
	})
	d.DefineMethod(np, "sendBeacon", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d := realmOf(it)
		d.Host.Fetch(d.absURL(argStr(args, 0)), beaconType, "POST", argStr(args, 1))
		return minjs.Boolean(true), nil
	})

	d.Window.SetNonEnum("navigator", minjs.ObjectValue(nav))
}

func (d *DOM) buildScreen() {
	sp := d.proto("Screen")
	scr := minjs.NewObject(sp)
	scr.Class = "Screen"
	d.Screen = scr
	cfg := d.Cfg
	num := func(n int) func(*DOM) minjs.Value { return constant(minjs.Int(n)) }
	g := func(name string, fn func(*DOM) minjs.Value) {
		d.DefineGetter(sp, "Screen", name, fn)
	}
	g("width", num(cfg.ScreenW))
	g("height", num(cfg.ScreenH))
	g("availWidth", num(cfg.ScreenW-cfg.AvailLeft))
	g("availHeight", num(cfg.ScreenH-cfg.AvailTop))
	g("availTop", num(cfg.AvailTop))
	g("availLeft", num(cfg.AvailLeft))
	g("colorDepth", num(24))
	g("pixelDepth", num(24))
	g("top", num(0))
	g("left", num(0))
	if cfg.OS == MacOS {
		// Synthetic platform-specific attribute: the macOS build exposes one
		// extra Screen property, giving the +253 (vs +252) tampering count
		// of Table 2.
		g("mozBrightness", constant(minjs.Number(1)))
	}
	d.Window.SetNonEnum("screen", minjs.ObjectValue(scr))
}

func (d *DOM) buildWindowProps() {
	w := d.Window
	cfg := d.Cfg

	w.SetNonEnum("innerWidth", minjs.Int(cfg.WindowW))
	w.SetNonEnum("innerHeight", minjs.Int(cfg.WindowH))
	w.SetNonEnum("outerWidth", minjs.Int(cfg.WindowW))
	w.SetNonEnum("outerHeight", minjs.Int(cfg.WindowH+74)) // chrome height
	for _, f := range d.positionFields() {
		w.SetNonEnum(f.key, f.v)
	}
	w.SetNonEnum("devicePixelRatio", minjs.Number(1))
	w.SetNonEnum("name", minjs.String(""))
	w.SetNonEnum("status", minjs.String(""))
	w.SetNonEnum("closed", minjs.Boolean(false))
	w.SetNonEnum("self", minjs.ObjectValue(w))
	w.SetNonEnum("window", minjs.ObjectValue(w))

	// top / parent resolve dynamically so subframes see their ancestors.
	w.DefineAccessor("top", d.native("get top", windowTop), nil, false)
	w.DefineAccessor("parent", d.native("get parent", windowParent), nil, false)
	// frames: a live array of subframe windows.
	w.DefineAccessor("frames", d.native("get frames", windowFrames), nil, false)
	w.DefineAccessor("length", d.native("get length", windowLength), nil, false)

	// location
	loc := minjs.NewObject(d.It.Protos.Object)
	loc.Class = "Location"
	d.Location = loc
	for _, f := range locationFields(d.URL) {
		loc.Set(f.key, f.v)
	}
	w.SetNonEnum("location", minjs.ObjectValue(loc))

	// timers; intervals degrade to a single shot in the simulation
	w.SetNonEnum("setTimeout", minjs.ObjectValue(d.native("setTimeout", setTimeout)))
	w.SetNonEnum("clearTimeout", minjs.ObjectValue(d.native("clearTimeout", clearTimeout)))
	w.SetNonEnum("setInterval", minjs.ObjectValue(d.native("setInterval", setInterval)))
	w.SetNonEnum("clearInterval", minjs.ObjectValue(d.native("clearInterval", clearTimeout)))

	w.SetNonEnum("open", minjs.ObjectValue(d.native("open", windowOpen)))
	w.SetNonEnum("addEventListener", minjs.ObjectValue(d.native("addEventListener", addEventListener)))
	w.SetNonEnum("removeEventListener", minjs.ObjectValue(d.native("removeEventListener", returnUndefined)))

	// localStorage: an in-memory Storage object.
	ls := minjs.NewObject(d.It.Protos.Object)
	ls.Class = "Storage"
	d.DefineMethod(ls, "getItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if v, ok := realmOf(it).storage[argStr(args, 0)]; ok {
			return minjs.String(v), nil
		}
		return minjs.Null(), nil
	})
	d.DefineMethod(ls, "setItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		realmOf(it).storage[argStr(args, 0)] = argStr(args, 1)
		return minjs.Undefined(), nil
	})
	d.DefineMethod(ls, "removeItem", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		delete(realmOf(it).storage, argStr(args, 0))
		return minjs.Undefined(), nil
	})
	w.SetNonEnum("localStorage", minjs.ObjectValue(ls))
}

func windowTop(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	cur := realmOf(it)
	for cur.Parent != nil {
		cur = cur.Parent
	}
	return minjs.ObjectValue(cur.Window), nil
}

func windowParent(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	d := realmOf(it)
	if d.Parent != nil {
		return minjs.ObjectValue(d.Parent.Window), nil
	}
	return minjs.ObjectValue(d.Window), nil
}

func windowFrames(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	arr := it.NewArrayP()
	for _, f := range realmOf(it).Frames {
		f.expose()
		arr.Elems = append(arr.Elems, minjs.ObjectValue(f.Window))
	}
	return minjs.ObjectValue(arr), nil
}

func windowLength(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	return minjs.Int(len(realmOf(it).Frames)), nil
}

func setTimeout(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	fnV := argVal(args, 0)
	if !fnV.IsFunction() {
		return minjs.Int(0), nil
	}
	delay := argVal(args, 1).ToNumber()
	var rest []minjs.Value
	if len(args) > 2 {
		rest = args[2:]
	}
	return minjs.Int(realmOf(it).Host.SetTimeout(fnV.Obj, rest, delay)), nil
}

func setInterval(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	fnV := argVal(args, 0)
	if !fnV.IsFunction() {
		return minjs.Int(0), nil
	}
	return minjs.Int(realmOf(it).Host.SetTimeout(fnV.Obj, nil, argVal(args, 1).ToNumber())), nil
}

func clearTimeout(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	realmOf(it).Host.ClearTimeout(int(argVal(args, 0).ToNumber()))
	return minjs.Undefined(), nil
}

func windowOpen(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	d := realmOf(it)
	nd, err := d.Host.OpenWindow(d.absURL(argStr(args, 0)))
	if err != nil || nd == nil {
		return minjs.Null(), nil
	}
	nd.expose()
	return minjs.ObjectValue(nd.Window), nil
}

func addEventListener(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	realmOf(it).addPageListener(argStr(args, 0), argVal(args, 1))
	return minjs.Undefined(), nil
}

func returnUndefined(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
	return minjs.Undefined(), nil
}

// field is one property value a realm's URL or window index decides.
type field struct {
	key string
	v   minjs.Value
}

// positionFields returns the window's position properties in definition
// order: Ubuntu regular mode shifts each window by a fixed offset.
func (d *DOM) positionFields() [4]field {
	cfg := &d.Cfg
	x := cfg.WindowX + cfg.OffsetX*cfg.WindowIndex
	y := cfg.WindowY + cfg.OffsetY*cfg.WindowIndex
	return [4]field{
		{"screenX", minjs.Int(x)},
		{"screenY", minjs.Int(y)},
		{"mozInnerScreenX", minjs.Int(x)},
		{"mozInnerScreenY", minjs.Int(y + 74)},
	}
}

// documentFields returns the document properties for url in definition
// order.
func documentFields(url string) [2]field {
	return [2]field{
		{"domain", minjs.String(hostOf(url))},
		{"documentURI", minjs.String(url)},
	}
}

// locationFields returns the location properties for url in definition
// order.
func locationFields(url string) [6]field {
	scheme, host, path := splitURL(url)
	return [6]field{
		{"href", minjs.String(url)},
		{"protocol", minjs.String(scheme + ":")},
		{"host", minjs.String(host)},
		{"hostname", minjs.String(host)},
		{"pathname", minjs.String(path)},
		{"origin", minjs.String(scheme + "://" + host)},
	}
}

func splitURL(url string) (scheme, host, path string) {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		scheme = rest[:i]
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	} else {
		host, path = rest, "/"
	}
	return
}

// absURL resolves ref against the document URL.
func (d *DOM) absURL(ref string) string {
	if strings.Contains(ref, "://") || d.URL == "" {
		return ref
	}
	scheme, host, basePath := splitURL(d.URL)
	if strings.HasPrefix(ref, "/") {
		return scheme + "://" + host + ref
	}
	dir := basePath
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	return scheme + "://" + host + dir + ref
}

func (d *DOM) addPageListener(event string, fn minjs.Value) {
	if fn.IsFunction() {
		d.pageListeners[event] = append(d.pageListeners[event], fn.Obj)
	}
}

// realmSeal is what Untouched compares against: the write counters of
// every object and scope reachable from the realm's roots when it was first
// exposed (minjs.Interp.MarkWrites), and its step and alloc counters.
type realmSeal struct {
	marks         minjs.WriteMarks
	steps, allocs int64
}

// expose seals the realm the first time script is handed its window or
// document. Every route that hands one out calls it before returning. The
// seal is one walk that collects pointers and counters; it hashes nothing.
func (d *DOM) expose() {
	if d.seal == nil {
		d.seal = &realmSeal{marks: d.It.MarkWrites(), steps: d.It.Steps(), allocs: d.It.Allocs()}
	}
}

// Untouched reports whether the realm is still as it was built, as far as
// script can see it: it was never exposed, or every object and scope its
// seal marked still has the write counter it had then, and its step and
// alloc counters still equal the seal. Exposure is the only way into
// another realm, so script from elsewhere reaches a realm's objects only
// through the window or document it was handed, and every write, define,
// delete, prototype change or freeze on an object reachable from the
// realm's roots, and every store into a closure scope, moves a counter.
// A write that stores the value already there moves none. A change that is
// later undone, such as a define then a delete, still counts: the check is
// coarser than comparing graphs, never blinder. State only a native's Go
// closure holds is host state, outside the walk; a program recorded into
// an image may not depend on it (Interp.Record). The check walks nothing;
// the seal walks each exposed realm once, and the rest cost nothing.
func (d *DOM) Untouched() bool {
	if d.seal == nil {
		return true
	}
	return d.It.Steps() == d.seal.steps && d.It.Allocs() == d.seal.allocs && d.seal.marks.Unchanged()
}

// ListenHostEvent registers an extension-side listener for events delivered
// through the original native dispatchEvent. This models the content script
// of OpenWPM's extension receiving instrumentation messages.
func (d *DOM) ListenHostEvent(eventType string, fn func(ev minjs.Value)) {
	d.hostListeners[eventType] = append(d.hostListeners[eventType], fn)
}

// deliverHostEvent routes an event object to host listeners by its type.
func (d *DOM) deliverHostEvent(ev minjs.Value) {
	if !ev.IsObject() {
		return
	}
	t, _ := d.It.GetMember(ev, "type")
	for _, fn := range d.hostListeners[t.ToString()] {
		fn(ev)
	}
}

func argVal(args []minjs.Value, i int) minjs.Value {
	if i < len(args) {
		return args[i]
	}
	return minjs.Undefined()
}

func argStr(args []minjs.Value, i int) string {
	v := argVal(args, i)
	if v.IsUndefined() {
		return ""
	}
	return v.ToString()
}
