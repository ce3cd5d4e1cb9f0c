// Package stealth implements WPM_hide, the hardened OpenWPM variant of
// Sec. 6 of the paper. Instead of injecting page-context JavaScript, it
// wraps APIs with exportFunction-style native functions installed from the
// content context:
//
//   - wrappers report the original `[native code]` toString (Sec. 6.1.1);
//   - nothing is added to the DOM — no window globals, no residue (6.1.2);
//   - stack traces show no instrumentation frames, and brand-check errors
//     from the original getters propagate unchanged (6.1.3);
//   - every hook lands on the prototype that owns the property — no
//     prototype pollution (6.1.4);
//   - navigator.webdriver reads false and the window geometry comes from a
//     settings file (6.1.5);
//   - records travel over a private host channel (browser.runtime), immune
//     to document.dispatchEvent interception and forgery (6.2.1);
//   - frames are instrumented synchronously at creation, closing the
//     unobserved-channel window (6.2.2).
package stealth

import (
	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/minjs"
	"gullible/internal/openwpm"
)

// Settings is the WPM_hide settings file making OpenWPM's fixed window
// geometry configurable (Sec. 6.1.5).
type Settings struct {
	WindowW, WindowH int
	WindowX, WindowY int
}

// DefaultSettings mimics an ordinary human setup.
func DefaultSettings() Settings {
	return Settings{WindowW: 1295, WindowH: 722, WindowX: 112, WindowY: 76}
}

// Instrument is the hardened JS instrument; it implements
// openwpm.Instrumentor and can be plugged into a TaskManager via
// CrawlConfig.Stealth.
type Instrument struct {
	Settings Settings
	// MaskAutomation hides navigator.webdriver and the automation window
	// geometry. Disable to measure recording hardening in isolation.
	MaskAutomation bool
}

// New returns a hardened instrument with default settings.
func New() *Instrument {
	return &Instrument{Settings: DefaultSettings(), MaskAutomation: true}
}

// Name implements openwpm.Instrumentor.
func (si *Instrument) Name() string { return "stealth_js_instrument" }

// TopInstallError implements openwpm.Instrumentor. Content-context
// installation cannot be blocked by CSP, so it never fails.
func (si *Instrument) TopInstallError() error { return nil }

// OnWindow instruments a fresh realm synchronously — top documents and
// every subframe alike (frame protection).
func (si *Instrument) OnWindow(b *browser.Browser, st *openwpm.Storage, d *jsdom.DOM, top bool) {
	if si.MaskAutomation {
		si.maskAutomation(d)
	}
	si.hookAPIs(b, st, d)
}

// maskAutomation hides the WebDriver flag and applies the settings-file
// window geometry.
func (si *Instrument) maskAutomation(d *jsdom.DOM) {
	MaskAutomation(d, si.Settings)
}

// MaskAutomation hides the automation fingerprint of a realm: the
// navigator.webdriver flag reads false (with the WebIDL brand check
// preserved) and the window geometry takes the settings-file values.
// Exported for other instrumentation strategies (package dbginstrument).
func MaskAutomation(d *jsdom.DOM, s Settings) {
	it := d.It
	np := d.Protos["Navigator"]

	// navigator.webdriver → false; the replacement getter preserves the
	// WebIDL brand check by delegating foreign receivers to the original.
	if owner, prop := np.FindProperty("webdriver"); prop != nil && prop.Accessor {
		orig := prop.Get
		getter := it.NewNative("get webdriver", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			if !this.IsObject() || this.Obj.Class != "Navigator" {
				_, err := it.CallInFrame(orig, this, nil) // throws like the original
				return minjs.Undefined(), err
			}
			return minjs.Boolean(false), nil
		})
		owner.DefineAccessor("webdriver", getter, nil, true)
	}

	// settings-file window geometry
	w := d.Window
	w.SetNonEnum("innerWidth", minjs.Int(s.WindowW))
	w.SetNonEnum("innerHeight", minjs.Int(s.WindowH))
	w.SetNonEnum("outerWidth", minjs.Int(s.WindowW))
	w.SetNonEnum("outerHeight", minjs.Int(s.WindowH+74))
	w.SetNonEnum("screenX", minjs.Int(s.WindowX))
	w.SetNonEnum("screenY", minjs.Int(s.WindowY))
	w.SetNonEnum("mozInnerScreenX", minjs.Int(s.WindowX))
	w.SetNonEnum("mozInnerScreenY", minjs.Int(s.WindowY+74))
}

// hookAPIs wraps every instrumentable API with a native, toString-preserving
// wrapper on its OWNING prototype, reporting through a private channel.
func (si *Instrument) hookAPIs(b *browser.Browser, st *openwpm.Storage, d *jsdom.DOM) {
	it := d.It
	frameURL := d.URL
	// The private reporting channel: a Go closure the page cannot reach —
	// the browser.runtime port of Sec. 6.2.1.
	report := func(symbol, operation, value, args string) {
		st.AddJSCall(openwpm.JSCall{
			TopURL:    b.FinalURL(),
			FrameURL:  frameURL,
			Symbol:    symbol,
			Operation: operation,
			Value:     value,
			Args:      args,
			ScriptURL: scriptURLOf(it),
			Time:      b.Now(),
		})
	}

	for _, api := range d.InstrumentableAPIs() {
		api := api
		// find the owning prototype starting from the registered prototype
		owner, prop := api.Proto.FindProperty(api.Name)
		if prop == nil {
			continue
		}
		symbol := api.Path()
		if prop.Accessor {
			origGet, origSet := prop.Get, prop.Set
			var getter, setter *minjs.Object
			if origGet != nil {
				name := origGet.NativeFnName()
				if name == "" {
					name = "get " + api.Name
				}
				getter = it.NewNative(name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
					v, err := it.CallInFrame(origGet, this, nil)
					if err != nil {
						return minjs.Undefined(), err // original brand-check error propagates
					}
					report(symbol, "get", v.ToString(), "")
					return v, nil
				})
			}
			if origSet != nil {
				name := origSet.NativeFnName()
				if name == "" {
					name = "set " + api.Name
				}
				setter = it.NewNative(name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
					var val string
					if len(args) > 0 {
						val = args[0].ToString()
					}
					report(symbol, "set", val, "")
					return it.CallInFrame(origSet, this, args)
				})
			}
			owner.DefineProperty(api.Name, &minjs.Property{
				Get: getter, Set: setter, Accessor: true,
				Enumerable: prop.Enumerable, Configurable: prop.Configurable,
			})
			continue
		}
		if !prop.Value.IsFunction() {
			continue
		}
		orig := prop.Value.Obj
		wrapper := it.NewNative(orig.NativeFnName(), func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			var argStr string
			for i, a := range args {
				if i > 0 {
					argStr += ","
				}
				argStr += a.ToString()
			}
			report(symbol, "call", "", argStr)
			return it.CallInFrame(orig, this, args) // errors propagate with clean stacks
		})
		owner.DefineProperty(api.Name, &minjs.Property{
			Value:      minjs.ObjectValue(wrapper),
			Enumerable: prop.Enumerable, Writable: prop.Writable, Configurable: prop.Configurable,
		})
	}
}

// scriptURLOf attributes the running call to its originating script,
// computed host-side (pages cannot spoof it).
func scriptURLOf(it *minjs.Interp) string {
	return it.CurrentScript()
}
