package jsdom

import (
	"fmt"
	"strings"

	"gullible/internal/minjs"
	"gullible/internal/scriptcache"
)

func (d *DOM) buildPrototypes() {
	// Core interface prototypes created up front so instrumentation can
	// enumerate them even before first use.
	d.proto("Navigator")
	d.proto("Screen")
	d.proto("Document")
	d.proto("HTMLElement")
	d.proto("HTMLCanvasElement")
	d.proto("HTMLIFrameElement")
	d.proto("HTMLImageElement")
	d.proto("HTMLScriptElement")
	d.proto("CanvasRenderingContext2D")
	d.proto("WebGLRenderingContext")
	d.proto("AudioContext")
	d.proto("Event")
	d.proto("CustomEvent")

	// element prototype chain: HTML*Element -> HTMLElement
	for _, sub := range []string{"HTMLCanvasElement", "HTMLIFrameElement", "HTMLImageElement", "HTMLScriptElement"} {
		d.Protos[sub].Proto = d.Protos["HTMLElement"]
	}
	d.buildElementProtos()
	d.buildCanvasProtos()
	d.buildWebGLProto()
	d.buildAudioProto()
	d.buildEvents()
}

func (d *DOM) buildDocument() {
	dp := d.Protos["Document"]
	// Firefox documents sit behind a two-level chain:
	// document → HTMLDocument.prototype → Document.prototype. The attribute
	// getters live on Document.prototype; naive instrumentation that hooks
	// everything onto the FIRST prototype pollutes HTMLDocument.prototype
	// (Fig. 2 of the paper).
	hdp := d.proto("HTMLDocument")
	hdp.Proto = dp
	doc := minjs.NewObject(hdp)
	doc.Class = "Document"
	d.Document = doc

	// Attribute-style getters instrumented by OpenWPM's default config.
	d.DefineGetter(dp, "Document", "referrer", constant(minjs.String("")))
	d.DefineGetter(dp, "Document", "title", constant(minjs.String("")))
	d.DefineGetter(dp, "Document", "hidden", constant(minjs.Boolean(false)))
	d.DefineGetter(dp, "Document", "visibilityState", constant(minjs.String("visible")))
	d.DefineGetter(dp, "Document", "lastModified", constant(minjs.String("01/01/2022 00:00:00")))

	// document.cookie: accessor bridging to the host cookie jar.
	cookieGetter := d.native("get cookie", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.String(realmOf(it).Host.CookieString()), nil
	})
	cookieSetter := d.native("set cookie", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		realmOf(it).Host.SetCookieString(argStr(args, 0))
		return minjs.Undefined(), nil
	})
	dp.DefineAccessor("cookie", cookieGetter, cookieSetter, true)

	doc.SetNonEnum("readyState", minjs.String("complete"))
	for _, f := range documentFields(d.URL) {
		doc.SetNonEnum(f.key, f.v)
	}
	doc.SetNonEnum("characterSet", minjs.String("UTF-8"))
	doc.SetNonEnum("compatMode", minjs.String("CSS1Compat"))

	// document.fonts: enumeration surface (Docker exposes a single font).
	fonts := minjs.NewObject(d.It.Protos.Object)
	fonts.Class = "FontFaceSet"
	fonts.SetNonEnum("size", minjs.Int(len(d.Cfg.Fonts)))
	d.fontList = d.It.NewArrayP()
	for _, f := range d.Cfg.Fonts {
		d.fontList.Elems = append(d.fontList.Elems, minjs.String(f))
	}
	d.DefineMethod(fonts, "values", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(realmOf(it).fontList), nil
	})
	d.DefineMethod(fonts, "check", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		want := strings.ToLower(argStr(args, 0))
		for _, f := range realmOf(it).Cfg.Fonts {
			if strings.Contains(want, strings.ToLower(f)) {
				return minjs.Boolean(true), nil
			}
		}
		return minjs.Boolean(false), nil
	})
	doc.SetNonEnum("fonts", minjs.ObjectValue(fonts))

	// DOM construction and lookup.
	d.DefineMethod(dp, "createElement", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(realmOf(it).NewElement(strings.ToLower(argStr(args, 0)))), nil
	})
	d.DefineMethod(dp, "getElementById", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if el, ok := realmOf(it).elementsByID[argStr(args, 0)]; ok {
			return minjs.ObjectValue(el), nil
		}
		return minjs.Null(), nil
	})
	d.DefineMethod(dp, "querySelector", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d := realmOf(it)
		sel := argStr(args, 0)
		if strings.HasPrefix(sel, "#") {
			if el, ok := d.elementsByID[sel[1:]]; ok {
				return minjs.ObjectValue(el), nil
			}
			// Pages always have an implicit container for any id selector:
			// attacks like Listing 3 query arbitrary ids.
			el := d.NewElement("div")
			el.Set("id", minjs.String(sel[1:]))
			d.elementsByID[sel[1:]] = el
			return minjs.ObjectValue(el), nil
		}
		return minjs.Null(), nil
	})
	d.DefineMethod(dp, "getElementsByTagName", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(it.NewArrayP()), nil
	})
	d.DefineMethod(dp, "write", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		realmOf(it).Host.DocumentWrite(argStr(args, 0))
		return minjs.Undefined(), nil
	})
	d.DefineMethod(dp, "addEventListener", addEventListener)
	d.DefineMethod(dp, "removeEventListener", returnUndefined)

	// The native event dispatcher: delivers to extension-side listeners.
	// It is deliberately an ordinary (shadowable) property — the page can
	// replace document.dispatchEvent, which is the Sec. 5.1/5.2 attack.
	d.DefineMethod(dp, "dispatchEvent", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		realmOf(it).deliverHostEvent(argVal(args, 0))
		return minjs.Boolean(true), nil
	})

	body := d.NewElement("body")
	head := d.NewElement("head")
	html := d.NewElement("html")
	doc.SetNonEnum("body", minjs.ObjectValue(body))
	doc.SetNonEnum("head", minjs.ObjectValue(head))
	doc.SetNonEnum("documentElement", minjs.ObjectValue(html))

	d.Window.SetNonEnum("document", minjs.ObjectValue(doc))
}

func (d *DOM) buildElementProtos() {
	ep := d.Protos["HTMLElement"]
	d.DefineMethod(ep, "appendChild", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		child := argVal(args, 0)
		if !child.IsObject() {
			return child, nil
		}
		realmOf(it).attachElement(child.Obj)
		return child, nil
	})
	d.DefineMethod(ep, "insertBefore", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		child := argVal(args, 0)
		if child.IsObject() {
			realmOf(it).attachElement(child.Obj)
		}
		return child, nil
	})
	d.DefineMethod(ep, "removeChild", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		child := argVal(args, 0)
		if child.IsObject() {
			child.Obj.Set("__detached", minjs.Boolean(true))
		}
		return child, nil
	})
	d.DefineMethod(ep, "remove", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if this.IsObject() {
			this.Obj.Set("__detached", minjs.Boolean(true))
		}
		return minjs.Undefined(), nil
	})
	d.DefineMethod(ep, "setAttribute", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if this.IsObject() {
			name := argStr(args, 0)
			it.SetMember(this.Obj, name, minjs.String(argStr(args, 1)))
			if name == "id" {
				realmOf(it).elementsByID[argStr(args, 1)] = this.Obj
			}
		}
		return minjs.Undefined(), nil
	})
	d.DefineMethod(ep, "getAttribute", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if !this.IsObject() {
			return minjs.Null(), nil
		}
		v, err := it.GetMember(this, argStr(args, 0))
		if err != nil || v.IsUndefined() {
			return minjs.Null(), nil
		}
		return v, nil
	})
	d.DefineMethod(ep, "addEventListener", addEventListener)

	// iframe.contentWindow: available once the frame was attached & loaded.
	cw := d.native("get contentWindow", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if fd := frameOf(this); fd != nil {
			fd.expose()
			return minjs.ObjectValue(fd.Window), nil
		}
		return minjs.Null(), nil
	})
	d.Protos["HTMLIFrameElement"].DefineAccessor("contentWindow", cw, nil, true)
	cd := d.native("get contentDocument", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if fd := frameOf(this); fd != nil {
			fd.expose()
			return minjs.ObjectValue(fd.Document), nil
		}
		return minjs.Null(), nil
	})
	d.Protos["HTMLIFrameElement"].DefineAccessor("contentDocument", cd, nil, true)

	// img.src setter triggers an image request immediately (tracking pixels).
	srcGet := d.native("get src", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if !this.IsObject() {
			return minjs.String(""), nil
		}
		if p := this.Obj.GetOwn("__src"); p != nil {
			return p.Value, nil
		}
		return minjs.String(""), nil
	})
	srcSet := d.native("set src", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if this.IsObject() {
			url := argStr(args, 0)
			this.Obj.SetNonEnum("__src", minjs.String(url))
			d := realmOf(it)
			d.Host.Fetch(d.absURL(url), imageType, "GET", "")
		}
		return minjs.Undefined(), nil
	})
	d.Protos["HTMLImageElement"].DefineAccessor("src", srcGet, srcSet, true)
}

// frameOf returns the frame realm an attached iframe element carries, nil
// for any other receiver. Natives carry their realm in the same Host field,
// so a function is never a frame.
func frameOf(this minjs.Value) *DOM {
	if !this.IsObject() || this.IsFunction() {
		return nil
	}
	fd, _ := this.Obj.Host.(*DOM)
	return fd
}

// NewElement creates an element of the given tag.
func (d *DOM) NewElement(tag string) *minjs.Object {
	protoName := "HTMLElement"
	class := "HTMLElement"
	switch tag {
	case "canvas":
		protoName, class = "HTMLCanvasElement", "HTMLCanvasElement"
	case "iframe":
		protoName, class = "HTMLIFrameElement", "HTMLIFrameElement"
	case "img", "image":
		protoName, class = "HTMLImageElement", "HTMLImageElement"
	case "script":
		protoName, class = "HTMLScriptElement", "HTMLScriptElement"
	}
	el := minjs.NewObject(d.Protos[protoName])
	el.Class = class
	el.SetNonEnum("tagName", minjs.String(strings.ToUpper(tag)))
	el.SetNonEnum("nodeName", minjs.String(strings.ToUpper(tag)))
	style := minjs.NewObject(d.It.Protos.Object)
	style.Class = "CSS2Properties"
	el.SetNonEnum("style", minjs.ObjectValue(style))
	return el
}

// attachElement realises side effects of inserting an element into the
// document: iframes load their src; script elements with src load and run.
func (d *DOM) attachElement(el *minjs.Object) {
	switch el.Class {
	case "HTMLIFrameElement":
		src, _ := d.It.GetMember(minjs.ObjectValue(el), "src")
		frameURL := "about:blank"
		if !src.IsNullish() && src.ToString() != "" {
			frameURL = d.absURL(src.ToString())
		}
		fd, err := d.Host.CreateFrame(frameURL)
		if err != nil || fd == nil {
			return
		}
		fd.Parent = d
		d.Frames = append(d.Frames, fd)
		el.Host = fd
	case "HTMLScriptElement":
		src, _ := d.It.GetMember(minjs.ObjectValue(el), "src")
		if !src.IsNullish() && src.ToString() != "" {
			url := d.absURL(src.ToString())
			status, _, body, err := d.Host.Fetch(url, scriptType, "GET", "")
			if err == nil && status == 200 {
				prog, perr := scriptcache.Shared.Program(body, url)
				if perr == nil {
					d.It.RunProgram(prog)
				}
			}
			return
		}
		text, _ := d.It.GetMember(minjs.ObjectValue(el), "textContent")
		if !text.IsNullish() && text.ToString() != "" {
			prog, perr := scriptcache.Shared.Program(text.ToString(), d.URL+"#inline")
			if perr == nil {
				d.It.RunProgram(prog)
			}
		}
	}
	if idv, err := d.It.GetMember(minjs.ObjectValue(el), "id"); err == nil && idv.Kind == minjs.KindString && idv.Str != "" {
		d.elementsByID[idv.Str] = el
	}
}

// RegisterElement pre-creates a static page element with an id so scripts
// can querySelector it (the browser calls this while parsing HTML).
func (d *DOM) RegisterElement(tag, id string) *minjs.Object {
	el := d.NewElement(tag)
	if id != "" {
		el.Set("id", minjs.String(id))
		d.elementsByID[id] = el
	}
	return el
}

func (d *DOM) buildCanvasProtos() {
	cp := d.Protos["HTMLCanvasElement"]
	d.DefineMethod(cp, "getContext", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		d := realmOf(it)
		switch argStr(args, 0) {
		case "2d":
			return minjs.ObjectValue(d.Canvas2D()), nil
		case "webgl", "experimental-webgl", "webgl2":
			ctx := d.WebGL()
			if ctx == nil {
				return minjs.Null(), nil
			}
			return minjs.ObjectValue(ctx), nil
		}
		return minjs.Null(), nil
	})
	d.DefineMethod(cp, "toDataURL", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.String(realmOf(it).canvasFingerprint()), nil
	})
	d.DefineMethod(cp, "toBlob", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if fn := argVal(args, 0); fn.IsFunction() {
			d := realmOf(it)
			d.Host.SetTimeout(fn.Obj, []minjs.Value{minjs.String(d.canvasFingerprint())}, 0)
		}
		return minjs.Undefined(), nil
	})
	d.DefineMethod(cp, "captureStream", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Null(), nil
	})

	ctx2d := d.Protos["CanvasRenderingContext2D"]
	methods := []string{
		"arc", "arcTo", "beginPath", "bezierCurveTo", "clearRect", "clip",
		"closePath", "createImageData", "createLinearGradient", "createPattern",
		"createRadialGradient", "drawImage", "ellipse", "fill", "fillRect",
		"fillText", "getLineDash", "getTransform", "isPointInPath",
		"isPointInStroke", "lineTo", "moveTo", "putImageData",
		"quadraticCurveTo", "rect", "resetTransform", "restore", "rotate",
		"save", "scale", "setLineDash", "setTransform", "stroke", "strokeRect",
		"strokeText", "transform", "translate", "drawFocusIfNeeded",
	}
	for _, m := range methods {
		d.DefineMethod(ctx2d, m, returnUndefined)
	}
	d.DefineMethod(ctx2d, "measureText", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		tm := minjs.NewObject(it.Protos.Object)
		tm.Class = "TextMetrics"
		// width varies with the installed fonts — a classic font probe.
		tm.Set("width", minjs.Number(float64(8*len(argStr(args, 0)))+float64(len(realmOf(it).Cfg.Fonts))/10))
		return minjs.ObjectValue(tm), nil
	})
	d.DefineMethod(ctx2d, "getImageData", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		img := minjs.NewObject(it.Protos.Object)
		img.Class = "ImageData"
		img.Set("data", minjs.ObjectValue(it.NewArrayP(minjs.Int(11), minjs.Int(22), minjs.Int(33), minjs.Int(255))))
		return minjs.ObjectValue(img), nil
	})
	for _, attr := range []string{"fillStyle", "strokeStyle", "font", "globalAlpha", "lineWidth", "textAlign"} {
		d.DefineGetter(ctx2d, "CanvasRenderingContext2D", attr, constant(minjs.String("")))
	}

	// The AudioContext constructor is creatable (audio fingerprinting).
	ctor := d.native("AudioContext", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		o := minjs.NewObject(realmOf(it).Protos["AudioContext"])
		o.Class = "AudioContext"
		return minjs.ObjectValue(o), nil
	})
	ctor.SetNonEnum("prototype", minjs.ObjectValue(d.Protos["AudioContext"]))
	d.Window.SetNonEnum("AudioContext", minjs.ObjectValue(ctor))
}

// Canvas2D returns the realm's shared 2D rendering context.
func (d *DOM) Canvas2D() *minjs.Object {
	if d.ctx2D == nil {
		d.ctx2D = minjs.NewObject(d.Protos["CanvasRenderingContext2D"])
		d.ctx2D.Class = "CanvasRenderingContext2D"
	}
	return d.ctx2D
}

// canvasFingerprint derives a deterministic canvas hash from the
// rendering-relevant configuration.
func (d *DOM) canvasFingerprint() string {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	mix(d.Cfg.OS.String())
	mix(d.Cfg.Mode.String())
	mix(fmt.Sprint(d.Cfg.FirefoxVersion))
	for _, f := range d.Cfg.Fonts {
		mix(f)
	}
	return fmt.Sprintf("data:image/png;base64,%016x", h)
}

func (d *DOM) buildAudioProto() {
	ap := d.Protos["AudioContext"]
	// decodeAudioData throws on missing arguments like its WebIDL original;
	// provoking such an error is how pages read instrumentation frames out
	// of stack traces (Sec. 3.1.4).
	d.DefineMethod(ap, "decodeAudioData", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if len(args) == 0 {
			return minjs.Undefined(), it.ThrowError("TypeError", "AudioContext.decodeAudioData: At least 1 argument required, but only 0 passed")
		}
		o := minjs.NewObject(it.Protos.Object)
		o.Class = "AudioBuffer"
		return minjs.ObjectValue(o), nil
	})
	for _, m := range []string{
		"createAnalyser", "createOscillator", "createGain",
		"createScriptProcessor", "createBuffer", "createBufferSource",
		"createDynamicsCompressor", "close", "resume",
		"suspend",
	} {
		d.DefineMethod(ap, m, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			o := minjs.NewObject(it.Protos.Object)
			o.Class = "AudioNode"
			return minjs.ObjectValue(o), nil
		})
	}
	d.DefineGetter(ap, "AudioContext", "sampleRate", constant(minjs.Int(44100)))
	d.DefineGetter(ap, "AudioContext", "state", constant(minjs.String("suspended")))
	d.DefineGetter(ap, "AudioContext", "destination", constant(minjs.Null()))
}

func hostOf(url string) string {
	_, h, _ := splitURL(url)
	return h
}
