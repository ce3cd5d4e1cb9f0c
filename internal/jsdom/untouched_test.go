package jsdom

import "testing"

// frameHost hands out one prebuilt realm for every frame and popup.
type frameHost struct {
	NopHost
	child *DOM
}

func (h *frameHost) CreateFrame(src string) (*DOM, error) { return h.child, nil }
func (h *frameHost) OpenWindow(url string) (*DOM, error)  { return h.child, nil }

// Untouched must see every change script from another realm can make to
// a realm's objects, whichever route handed the realm out, and must not
// mistake reads for changes. Each route is a parent-side expression that
// yields the handed-out window or document as h; the child's own setup
// script gives both a plain object to write through, so the writes read
// the same on every route. Every write case reaches the realm again
// afterwards: a second exposure must not re-seal over the change.
func TestUntouched(t *testing.T) {
	const iframe = `var f = document.createElement("iframe"); document.body.appendChild(f); `
	routes := []struct {
		name, get, natives string
	}{
		{"contentWindow", iframe + "var h = f.contentWindow;", "h.navigator.userAgent; h.screen.width; h.navigator.javaEnabled();"},
		{"contentDocument", iframe + "var h = f.contentDocument;", "h.title; h.referrer; h.cookie;"},
		{"frames", iframe + "var h = frames[0];", "h.navigator.userAgent; h.screen.width; h.navigator.javaEnabled();"},
		{"window.open", `var h = open("https://child.example/");`, "h.navigator.userAgent; h.screen.width; h.navigator.javaEnabled();"},
	}
	cases := []struct {
		name, src string
		untouched bool
	}{
		{"reads", "h.shared.a; h.shared.list[1]; h.shared.list.length; h.shared.hasOwnProperty('a'); Object.keys(h.shared);", true},
		{"new property", "h.shared.b = 2;", false},
		{"new property on the handle", "h.x = 1;", false},
		// an existing writable data property is overwritten in place: the
		// same *Property, no structural version bump
		{"overwrite", "h.shared.a = 5;", false},
		{"overwrite with the same value", "h.shared.a = 1;", true},
		{"delete", "delete h.shared.a;", false},
		{"defineProperty", "Object.defineProperty(h.shared, 'a', {value: 1, writable: false});", false},
		{"defineProperty accessor", "Object.defineProperty(h.shared, 'c', {get: function () { return 1; }});", false},
		{"setPrototypeOf", "Object.setPrototypeOf(h.shared, null);", false},
		{"array element", "h.shared.list[0] = 9;", false},
		{"array push", "h.shared.list.push(4);", false},
		{"freeze", "Object.freeze(h.shared);", false},
		// a define-then-delete bumps the object's structural version twice
		// and leaves every key, attribute and value as it was. That version
		// only validates inline caches, which it still does (it never goes
		// back), and an image applies its own version delta on top of
		// whatever it finds, so the realm is the one the seal describes.
		{"define then delete", "h.shared.tmp = 1; delete h.shared.tmp;", true},
	}
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	for _, r := range routes {
		for _, c := range cases {
			t.Run(r.name+"/"+c.name, func(t *testing.T) {
				child := Build(cfg, &NopHost{}, "https://child.example/")
				evalIn(t, child, "var shared = {a: 1, list: [1, 2, 3]}; window.shared = shared; document.shared = shared;")
				parent := Build(cfg, &frameHost{child: child}, "https://parent.example/")
				if !child.Untouched() {
					t.Fatal("a realm never exposed is not untouched")
				}
				evalIn(t, parent, r.get+r.natives)
				if !child.Untouched() {
					t.Fatal("plain reads and native getter calls touched the realm")
				}
				evalIn(t, parent, r.get+c.src+r.get)
				if got := child.Untouched(); got != c.untouched {
					t.Errorf("Untouched() = %v after %q, want %v", got, c.src, c.untouched)
				}
			})
		}
	}
}

// Untouched sees only what the graph digest walks: objects reachable from
// the global object and the intrinsic prototypes, and the step and alloc
// counters. State held only by a native's Go closure, such as the array
// navigator.languages returns, is host state, which minjs.Interp.Record
// forbids a recorded program to depend on; a write there leaves the realm
// untouched as far as an instrument image is concerned.
func TestUntouchedIgnoresHostHeldState(t *testing.T) {
	cfg := StandardConfig(Ubuntu, Regular, 90, 0)
	child := Build(cfg, &NopHost{}, "https://child.example/")
	parent := Build(cfg, &frameHost{child: child}, "https://parent.example/")
	evalIn(t, parent, `var h = open("https://child.example/"); h.navigator.languages[0] = "xx";`)
	if !child.Untouched() {
		t.Error("a write to host-held state touched the realm")
	}
	if v := evalIn(t, child, "navigator.languages[0]"); v.ToString() != "xx" {
		t.Errorf("navigator.languages[0] = %q, want the parent's write", v.ToString())
	}
}
