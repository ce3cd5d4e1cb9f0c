package minjs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined()
}

// installBuiltins populates the realm's global object with the standard
// library subset used by the study's scripts.
func installBuiltins(it *Interp) {
	g := it.Global

	// Function.prototype
	fp := it.Protos.Function
	fp.SetNonEnum("toString", ObjectValue(it.NewNative("toString", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "Function.prototype.toString requires a function")
		}
		return String(this.Obj.FunctionSource()), nil
	})))
	fp.SetNonEnum("call", ObjectValue(it.NewNative("call", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "call requires a function")
		}
		var rest []Value
		if len(args) > 1 {
			rest = args[1:]
		}
		return it.CallFunction(this.Obj, arg(args, 0), rest)
	})))
	fp.SetNonEnum("apply", ObjectValue(it.NewNative("apply", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "apply requires a function")
		}
		var rest []Value
		if len(args) > 1 && args[1].IsObject() && args[1].Obj.Class == "Array" {
			rest = args[1].Obj.Elems
		}
		return it.CallFunction(this.Obj, arg(args, 0), rest)
	})))
	fp.SetNonEnum("bind", ObjectValue(it.NewNative("bind", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "bind requires a function")
		}
		target := this.Obj
		boundThis := arg(args, 0)
		var pre []Value
		if len(args) > 1 {
			pre = append(pre, args[1:]...)
		}
		name := "bound"
		if nv, err := it.GetMember(this, "name"); err == nil && nv.Kind == KindString {
			name = "bound " + nv.Str
		}
		b := it.NewNative(name, func(it *Interp, _ Value, callArgs []Value) (Value, error) {
			return it.CallFunction(target, boundThis, append(append([]Value(nil), pre...), callArgs...))
		})
		return ObjectValue(b), nil
	})))

	// Object.prototype
	op := it.Protos.Object
	op.SetNonEnum("hasOwnProperty", ObjectValue(it.NewNative("hasOwnProperty", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsObject() {
			return Boolean(false), nil
		}
		return Boolean(this.Obj.HasOwn(arg(args, 0).ToString())), nil
	})))
	op.SetNonEnum("toString", ObjectValue(it.NewNative("toString", func(it *Interp, this Value, args []Value) (Value, error) {
		if this.IsObject() {
			return String("[object " + this.Obj.Class + "]"), nil
		}
		return String(this.ToString()), nil
	})))
	op.SetNonEnum("isPrototypeOf", ObjectValue(it.NewNative("isPrototypeOf", func(it *Interp, this Value, args []Value) (Value, error) {
		v := arg(args, 0)
		if !this.IsObject() || !v.IsObject() {
			return Boolean(false), nil
		}
		for cur := v.Obj.Proto; cur != nil; cur = cur.Proto {
			if cur == this.Obj {
				return Boolean(true), nil
			}
		}
		return Boolean(false), nil
	})))
	op.SetNonEnum("propertyIsEnumerable", ObjectValue(it.NewNative("propertyIsEnumerable", func(it *Interp, this Value, args []Value) (Value, error) {
		if !this.IsObject() {
			return Boolean(false), nil
		}
		p := this.Obj.GetOwn(arg(args, 0).ToString())
		return Boolean(p != nil && p.Enumerable), nil
	})))

	// Object constructor + statics
	objectCtor := it.NewNative("Object", func(it *Interp, this Value, args []Value) (Value, error) {
		v := arg(args, 0)
		if v.IsObject() {
			return v, nil
		}
		return ObjectValue(it.NewObjectP()), nil
	})
	objectCtor.SetNonEnum("prototype", ObjectValue(op))
	objectCtor.SetNonEnum("defineProperty", ObjectValue(it.NewNative("defineProperty", func(it *Interp, this Value, args []Value) (Value, error) {
		ov, kv, dv := arg(args, 0), arg(args, 1), arg(args, 2)
		if !ov.IsObject() || !dv.IsObject() {
			return Undefined(), it.ThrowError("TypeError", "Object.defineProperty called on non-object")
		}
		key := kv.ToString()
		desc := dv.Obj
		prop := &Property{Configurable: truthyProp(it, desc, "configurable"), Enumerable: truthyProp(it, desc, "enumerable"), Writable: truthyProp(it, desc, "writable")}
		getV, _ := it.GetMember(dv, "get")
		setV, _ := it.GetMember(dv, "set")
		if getV.IsFunction() || setV.IsFunction() {
			prop.Accessor = true
			if getV.IsFunction() {
				prop.Get = getV.Obj
			}
			if setV.IsFunction() {
				prop.Set = setV.Obj
			}
		} else {
			val, _ := it.GetMember(dv, "value")
			prop.Value = val
		}
		existing := ov.Obj.GetOwn(key)
		if existing != nil && !existing.Configurable {
			return Undefined(), it.ThrowError("TypeError", "can't redefine non-configurable property %q", key)
		}
		ov.Obj.DefineProperty(key, prop)
		return ov, nil
	})))
	objectCtor.SetNonEnum("getOwnPropertyDescriptor", ObjectValue(it.NewNative("getOwnPropertyDescriptor", func(it *Interp, this Value, args []Value) (Value, error) {
		ov := arg(args, 0)
		if !ov.IsObject() {
			return Undefined(), nil
		}
		p := ov.Obj.GetOwn(arg(args, 1).ToString())
		if p == nil {
			return Undefined(), nil
		}
		d := it.NewObjectP()
		d.Set("enumerable", Boolean(p.Enumerable))
		d.Set("configurable", Boolean(p.Configurable))
		if p.Accessor {
			d.Set("get", ObjectValue(p.Get))
			d.Set("set", ObjectValue(p.Set))
		} else {
			d.Set("value", p.Value)
			d.Set("writable", Boolean(p.Writable))
		}
		return ObjectValue(d), nil
	})))
	objectCtor.SetNonEnum("keys", ObjectValue(it.NewNative("keys", func(it *Interp, this Value, args []Value) (Value, error) {
		ov := arg(args, 0)
		if !ov.IsObject() {
			return ObjectValue(it.NewArrayP()), nil
		}
		keys := ov.Obj.OwnKeys(true)
		vals := make([]Value, len(keys))
		for i, k := range keys {
			vals[i] = String(k)
		}
		return ObjectValue(it.NewArrayP(vals...)), nil
	})))
	objectCtor.SetNonEnum("getOwnPropertyNames", ObjectValue(it.NewNative("getOwnPropertyNames", func(it *Interp, this Value, args []Value) (Value, error) {
		ov := arg(args, 0)
		if !ov.IsObject() {
			return ObjectValue(it.NewArrayP()), nil
		}
		keys := ov.Obj.OwnKeys(false)
		vals := make([]Value, len(keys))
		for i, k := range keys {
			vals[i] = String(k)
		}
		return ObjectValue(it.NewArrayP(vals...)), nil
	})))
	objectCtor.SetNonEnum("getPrototypeOf", ObjectValue(it.NewNative("getPrototypeOf", func(it *Interp, this Value, args []Value) (Value, error) {
		ov := arg(args, 0)
		if !ov.IsObject() {
			return Null(), nil
		}
		return ObjectValue(ov.Obj.Proto), nil
	})))
	objectCtor.SetNonEnum("setPrototypeOf", ObjectValue(it.NewNative("setPrototypeOf", func(it *Interp, this Value, args []Value) (Value, error) {
		ov, pv := arg(args, 0), arg(args, 1)
		if !ov.IsObject() {
			return ov, nil
		}
		if pv.IsObject() {
			// reject prototype cycles, like real engines ("cyclic
			// __proto__ value"): chain walks must terminate
			for cur := pv.Obj; cur != nil; cur = cur.Proto {
				if cur == ov.Obj {
					return Undefined(), it.ThrowError("TypeError", "can't set prototype: it would cause a prototype chain cycle")
				}
			}
			ov.Obj.setProto(pv.Obj)
		} else if pv.Kind == KindNull {
			ov.Obj.setProto(nil)
		}
		return ov, nil
	})))
	objectCtor.SetNonEnum("create", ObjectValue(it.NewNative("create", func(it *Interp, this Value, args []Value) (Value, error) {
		pv := arg(args, 0)
		var proto *Object
		if pv.IsObject() {
			proto = pv.Obj
		}
		return ObjectValue(NewObject(proto)), nil
	})))
	objectCtor.SetNonEnum("freeze", ObjectValue(it.NewNative("freeze", func(it *Interp, this Value, args []Value) (Value, error) {
		ov := arg(args, 0)
		if ov.IsObject() {
			o := ov.Obj
			if !o.NotExtensible {
				o.NotExtensible = true
				o.touch()
			}
			for _, k := range o.OwnKeys(false) {
				if p := o.GetOwn(k); p != nil && (p.Writable || p.Configurable) {
					p.Writable = false
					p.Configurable = false
					o.touch()
				}
			}
		}
		return ov, nil
	})))
	g.SetNonEnum("Object", ObjectValue(objectCtor))

	installArray(it)
	installString(it)
	installNumberBool(it)
	installErrors(it)
	installMathJSON(it)
	installGlobalsMisc(it)
}

func truthyProp(it *Interp, o *Object, key string) bool {
	v, _ := it.GetMember(ObjectValue(o), key)
	return v.Truthy()
}

func installArray(it *Interp) {
	ap := it.Protos.Array
	type arrayFn func(it *Interp, arr *Object, args []Value) (Value, error)
	def := func(name string, fn arrayFn) {
		ap.SetNonEnum(name, ObjectValue(it.NewNative(name, func(it *Interp, this Value, args []Value) (Value, error) {
			if !this.IsObject() || this.Obj.Class != "Array" {
				return Undefined(), it.ThrowError("TypeError", "Array.prototype.%s requires an array", name)
			}
			return fn(it, this.Obj, args)
		})))
	}
	def("push", func(it *Interp, arr *Object, args []Value) (Value, error) {
		if err := it.reserveElems(len(arr.Elems), len(arr.Elems)+len(args)); err != nil {
			return Undefined(), err
		}
		if len(args) > 0 {
			arr.Elems = append(arr.Elems, args...)
			arr.touch()
		}
		return Int(len(arr.Elems)), nil
	})
	def("pop", func(it *Interp, arr *Object, args []Value) (Value, error) {
		if len(arr.Elems) == 0 {
			return Undefined(), nil
		}
		v := arr.Elems[len(arr.Elems)-1]
		arr.Elems = arr.Elems[:len(arr.Elems)-1]
		arr.touch()
		return v, nil
	})
	def("shift", func(it *Interp, arr *Object, args []Value) (Value, error) {
		if len(arr.Elems) == 0 {
			return Undefined(), nil
		}
		v := arr.Elems[0]
		arr.Elems = arr.Elems[1:]
		arr.touch()
		return v, nil
	})
	def("indexOf", func(it *Interp, arr *Object, args []Value) (Value, error) {
		needle := arg(args, 0)
		for i, e := range arr.Elems {
			if StrictEquals(e, needle) {
				return Int(i), nil
			}
		}
		return Int(-1), nil
	})
	def("includes", func(it *Interp, arr *Object, args []Value) (Value, error) {
		needle := arg(args, 0)
		for _, e := range arr.Elems {
			if StrictEquals(e, needle) {
				return Boolean(true), nil
			}
		}
		return Boolean(false), nil
	})
	def("join", func(it *Interp, arr *Object, args []Value) (Value, error) {
		sep := ","
		if len(args) > 0 && !args[0].IsUndefined() {
			sep = args[0].ToString()
		}
		parts := make([]string, len(arr.Elems))
		size := len(sep) * (len(parts) - 1)
		for i, e := range arr.Elems {
			if !e.IsNullish() {
				parts[i] = e.ToString()
				size += len(parts[i])
			}
		}
		if err := it.checkStrLen(size); err != nil {
			return Undefined(), err
		}
		return String(strings.Join(parts, sep)), nil
	})
	def("slice", func(it *Interp, arr *Object, args []Value) (Value, error) {
		start, end := sliceBounds(len(arr.Elems), args)
		return ObjectValue(it.NewArrayP(arr.Elems[start:end]...)), nil
	})
	def("concat", func(it *Interp, arr *Object, args []Value) (Value, error) {
		n := len(arr.Elems)
		for _, a := range args {
			if a.IsObject() && a.Obj.Class == "Array" {
				n += len(a.Obj.Elems)
			} else {
				n++
			}
		}
		if err := it.reserveElems(0, n); err != nil {
			return Undefined(), err
		}
		out := append([]Value(nil), arr.Elems...)
		for _, a := range args {
			if a.IsObject() && a.Obj.Class == "Array" {
				out = append(out, a.Obj.Elems...)
			} else {
				out = append(out, a)
			}
		}
		return ObjectValue(it.NewArrayP(out...)), nil
	})
	def("forEach", func(it *Interp, arr *Object, args []Value) (Value, error) {
		fn := arg(args, 0)
		if !fn.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "forEach requires a function")
		}
		for i, e := range arr.Elems {
			if _, err := it.CallFunction(fn.Obj, Undefined(), []Value{e, Int(i), ObjectValue(arr)}); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	})
	def("map", func(it *Interp, arr *Object, args []Value) (Value, error) {
		fn := arg(args, 0)
		if !fn.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "map requires a function")
		}
		out := make([]Value, len(arr.Elems))
		for i, e := range arr.Elems {
			v, err := it.CallFunction(fn.Obj, Undefined(), []Value{e, Int(i), ObjectValue(arr)})
			if err != nil {
				return Undefined(), err
			}
			out[i] = v
		}
		return ObjectValue(it.NewArrayP(out...)), nil
	})
	def("filter", func(it *Interp, arr *Object, args []Value) (Value, error) {
		fn := arg(args, 0)
		if !fn.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "filter requires a function")
		}
		var out []Value
		for i, e := range arr.Elems {
			v, err := it.CallFunction(fn.Obj, Undefined(), []Value{e, Int(i), ObjectValue(arr)})
			if err != nil {
				return Undefined(), err
			}
			if v.Truthy() {
				out = append(out, e)
			}
		}
		return ObjectValue(it.NewArrayP(out...)), nil
	})
	def("sort", func(it *Interp, arr *Object, args []Value) (Value, error) {
		cmp := arg(args, 0)
		var sortErr error
		sort.SliceStable(arr.Elems, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			if cmp.IsFunction() {
				v, err := it.CallFunction(cmp.Obj, Undefined(), []Value{arr.Elems[i], arr.Elems[j]})
				if err != nil {
					sortErr = err
					return false
				}
				return v.ToNumber() < 0
			}
			return arr.Elems[i].ToString() < arr.Elems[j].ToString()
		})
		if len(arr.Elems) > 1 {
			arr.touch()
		}
		return ObjectValue(arr), sortErr
	})
	def("reverse", func(it *Interp, arr *Object, args []Value) (Value, error) {
		for i, j := 0, len(arr.Elems)-1; i < j; i, j = i+1, j-1 {
			arr.Elems[i], arr.Elems[j] = arr.Elems[j], arr.Elems[i]
		}
		if len(arr.Elems) > 1 {
			arr.touch()
		}
		return ObjectValue(arr), nil
	})
	def("toString", func(it *Interp, arr *Object, args []Value) (Value, error) {
		return String(ObjectValue(arr).ToString()), nil
	})

	arrayCtor := it.NewNative("Array", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 1 && args[0].Kind == KindNumber {
			n := int(args[0].Num)
			if err := it.reserveElems(0, n); err != nil {
				return Undefined(), err
			}
			elems := make([]Value, n)
			return ObjectValue(it.NewArrayP(elems...)), nil
		}
		return ObjectValue(it.NewArrayP(args...)), nil
	})
	arrayCtor.SetNonEnum("prototype", ObjectValue(ap))
	arrayCtor.SetNonEnum("isArray", ObjectValue(it.NewNative("isArray", func(it *Interp, this Value, args []Value) (Value, error) {
		v := arg(args, 0)
		return Boolean(v.IsObject() && v.Obj.Class == "Array"), nil
	})))
	it.Global.SetNonEnum("Array", ObjectValue(arrayCtor))
}

func sliceBounds(n int, args []Value) (int, int) {
	start, end := 0, n
	if len(args) > 0 && !args[0].IsUndefined() {
		start = int(args[0].ToNumber())
		if start < 0 {
			start += n
		}
	}
	if len(args) > 1 && !args[1].IsUndefined() {
		end = int(args[1].ToNumber())
		if end < 0 {
			end += n
		}
	}
	start = min(max(start, 0), n)
	end = min(max(end, 0), n)
	if start > end {
		start = end
	}
	return start, end
}

func installString(it *Interp) {
	sp := it.Protos.String
	def := func(name string, fn func(it *Interp, s string, args []Value) (Value, error)) {
		sp.SetNonEnum(name, ObjectValue(it.NewNative(name, func(it *Interp, this Value, args []Value) (Value, error) {
			return fn(it, this.ToString(), args)
		})))
	}
	def("indexOf", func(it *Interp, s string, args []Value) (Value, error) {
		return Int(strings.Index(s, arg(args, 0).ToString())), nil
	})
	def("lastIndexOf", func(it *Interp, s string, args []Value) (Value, error) {
		return Int(strings.LastIndex(s, arg(args, 0).ToString())), nil
	})
	def("includes", func(it *Interp, s string, args []Value) (Value, error) {
		return Boolean(strings.Contains(s, arg(args, 0).ToString())), nil
	})
	def("startsWith", func(it *Interp, s string, args []Value) (Value, error) {
		return Boolean(strings.HasPrefix(s, arg(args, 0).ToString())), nil
	})
	def("endsWith", func(it *Interp, s string, args []Value) (Value, error) {
		return Boolean(strings.HasSuffix(s, arg(args, 0).ToString())), nil
	})
	def("slice", func(it *Interp, s string, args []Value) (Value, error) {
		start, end := sliceBounds(len(s), args)
		return String(s[start:end]), nil
	})
	def("substring", func(it *Interp, s string, args []Value) (Value, error) {
		start, end := sliceBounds(len(s), args)
		return String(s[start:end]), nil
	})
	def("split", func(it *Interp, s string, args []Value) (Value, error) {
		sepV := arg(args, 0)
		if sepV.IsUndefined() {
			return ObjectValue(it.NewArrayP(String(s))), nil
		}
		sep := sepV.ToString()
		if strings.Count(s, sep) >= maxArrayLen {
			return Undefined(), it.ThrowError("RangeError", "invalid array length")
		}
		parts := strings.Split(s, sep)
		vals := make([]Value, len(parts))
		for i, p := range parts {
			vals[i] = String(p)
		}
		return ObjectValue(it.NewArrayP(vals...)), nil
	})
	def("replace", func(it *Interp, s string, args []Value) (Value, error) {
		repl := arg(args, 1).ToString()
		if err := it.checkStrLen(len(s) + len(repl)); err != nil {
			return Undefined(), err
		}
		return String(strings.Replace(s, arg(args, 0).ToString(), repl, 1)), nil
	})
	def("replaceAll", func(it *Interp, s string, args []Value) (Value, error) {
		old, repl := arg(args, 0).ToString(), arg(args, 1).ToString()
		if err := it.checkStrLen(len(s) + strings.Count(s, old)*len(repl)); err != nil {
			return Undefined(), err
		}
		return String(strings.ReplaceAll(s, old, repl)), nil
	})
	def("toLowerCase", func(it *Interp, s string, args []Value) (Value, error) {
		return String(strings.ToLower(s)), nil
	})
	def("toUpperCase", func(it *Interp, s string, args []Value) (Value, error) {
		return String(strings.ToUpper(s)), nil
	})
	def("trim", func(it *Interp, s string, args []Value) (Value, error) {
		return String(strings.TrimSpace(s)), nil
	})
	def("charAt", func(it *Interp, s string, args []Value) (Value, error) {
		i := int(arg(args, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return String(""), nil
		}
		return String(s[i : i+1]), nil
	})
	def("charCodeAt", func(it *Interp, s string, args []Value) (Value, error) {
		i := int(arg(args, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return Number(math.NaN()), nil
		}
		return Int(int(s[i])), nil
	})
	def("concat", func(it *Interp, s string, args []Value) (Value, error) {
		var b strings.Builder
		b.WriteString(s)
		for _, a := range args {
			b.WriteString(a.ToString())
			if err := it.checkStrLen(b.Len()); err != nil {
				return Undefined(), err
			}
		}
		return String(b.String()), nil
	})
	def("repeat", func(it *Interp, s string, args []Value) (Value, error) {
		n := int(arg(args, 0).ToNumber())
		if n < 0 || n > 1<<20 {
			return Undefined(), it.ThrowError("RangeError", "invalid repeat count")
		}
		if err := it.checkStrLen(len(s) * n); err != nil {
			return Undefined(), err
		}
		return String(strings.Repeat(s, n)), nil
	})
	def("toString", func(it *Interp, s string, args []Value) (Value, error) {
		return String(s), nil
	})

	strCtor := it.NewNative("String", func(it *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String(""), nil
		}
		return String(args[0].ToString()), nil
	})
	strCtor.SetNonEnum("prototype", ObjectValue(sp))
	strCtor.SetNonEnum("fromCharCode", ObjectValue(it.NewNative("fromCharCode", func(it *Interp, this Value, args []Value) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			b.WriteRune(rune(int(a.ToNumber())))
		}
		return String(b.String()), nil
	})))
	it.Global.SetNonEnum("String", ObjectValue(strCtor))
}

func installNumberBool(it *Interp) {
	np := it.Protos.Number
	np.SetNonEnum("toString", ObjectValue(it.NewNative("toString", func(it *Interp, this Value, args []Value) (Value, error) {
		radix := 10
		if len(args) > 0 && !args[0].IsUndefined() {
			radix = int(args[0].ToNumber())
		}
		n := this.ToNumber()
		if radix == 10 {
			return String(numToString(n)), nil
		}
		if radix < 2 || radix > 36 {
			return Undefined(), it.ThrowError("RangeError", "radix must be between 2 and 36")
		}
		return String(strconv.FormatInt(int64(n), radix)), nil
	})))
	np.SetNonEnum("toFixed", ObjectValue(it.NewNative("toFixed", func(it *Interp, this Value, args []Value) (Value, error) {
		digits := int(arg(args, 0).ToNumber())
		return String(strconv.FormatFloat(this.ToNumber(), 'f', digits, 64)), nil
	})))
	numCtor := it.NewNative("Number", func(it *Interp, this Value, args []Value) (Value, error) {
		return Number(arg(args, 0).ToNumber()), nil
	})
	numCtor.SetNonEnum("prototype", ObjectValue(np))
	numCtor.SetNonEnum("isInteger", ObjectValue(it.NewNative("isInteger", func(it *Interp, this Value, args []Value) (Value, error) {
		v := arg(args, 0)
		return Boolean(v.Kind == KindNumber && v.Num == math.Trunc(v.Num)), nil
	})))
	numCtor.SetNonEnum("MAX_SAFE_INTEGER", Number(9007199254740991))
	it.Global.SetNonEnum("Number", ObjectValue(numCtor))

	bp := it.Protos.Boolean
	bp.SetNonEnum("toString", ObjectValue(it.NewNative("toString", func(it *Interp, this Value, args []Value) (Value, error) {
		return String(this.ToString()), nil
	})))
	boolCtor := it.NewNative("Boolean", func(it *Interp, this Value, args []Value) (Value, error) {
		return Boolean(arg(args, 0).Truthy()), nil
	})
	boolCtor.SetNonEnum("prototype", ObjectValue(bp))
	it.Global.SetNonEnum("Boolean", ObjectValue(boolCtor))
}

func installErrors(it *Interp) {
	ep := it.Protos.Error
	ep.SetNonEnum("toString", ObjectValue(it.NewNative("toString", func(it *Interp, this Value, args []Value) (Value, error) {
		return String(this.ToString()), nil
	})))
	// each constructor keeps the prototype it was made with in its Host
	// field: a call without new builds on that object even after script
	// reassigns the constructor's prototype property
	makeErrCtor := func(name string, proto *Object) *Object {
		ctor := it.NewNative(name, func(it *Interp, this Value, args []Value) (Value, error) {
			target := this
			if !target.IsObject() || target.Obj == it.Global {
				target = ObjectValue(NewObject(it.Callee().Host.(*Object)))
			}
			o := target.Obj
			o.Class = "Error"
			o.SetNonEnum("name", String(name))
			msg := ""
			if len(args) > 0 && !args[0].IsUndefined() {
				msg = args[0].ToString()
			}
			o.SetNonEnum("message", String(msg))
			o.SetNonEnum("stack", String(it.captureJSStack()))
			return target, nil
		})
		ctor.Host = proto
		ctor.SetNonEnum("prototype", ObjectValue(proto))
		proto.SetNonEnum("constructor", ObjectValue(ctor))
		proto.SetNonEnum("name", String(name))
		return ctor
	}
	it.Global.SetNonEnum("Error", ObjectValue(makeErrCtor("Error", ep)))
	for _, name := range []string{"TypeError", "ReferenceError", "RangeError", "SyntaxError", "InternalError"} {
		sub := NewObject(ep)
		sub.Class = "Error"
		it.Global.SetNonEnum(name, ObjectValue(makeErrCtor(name, sub)))
	}
}

// captureJSStack is CaptureStack minus the synthetic frame of the native
// Error constructor itself.
func (it *Interp) captureJSStack() string {
	var b strings.Builder
	for i := len(it.stack) - 1; i >= 0; i-- {
		if it.stack[i].Script == "native" {
			continue
		}
		b.WriteString(it.stack[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

func installMathJSON(it *Interp) {
	// Math with a deterministic, per-realm PRNG (reseedable by the host).
	m := it.NewObjectP()
	m.Class = "Math"
	def := func(name string, fn func(args []Value) Value) {
		m.SetNonEnum(name, ObjectValue(it.NewNative(name, func(it *Interp, this Value, args []Value) (Value, error) {
			return fn(args), nil
		})))
	}
	// Math.random draws from its own realm's generator, whichever realm
	// calls it: the realm's interpreter rides in the function's Host field
	random := it.NewNative("random", func(it *Interp, this Value, args []Value) (Value, error) {
		return Number(it.Callee().Host.(*Interp).random()), nil
	})
	random.Host = it
	m.SetNonEnum("random", ObjectValue(random))
	def("floor", func(args []Value) Value { return Number(math.Floor(arg(args, 0).ToNumber())) })
	def("ceil", func(args []Value) Value { return Number(math.Ceil(arg(args, 0).ToNumber())) })
	def("round", func(args []Value) Value { return Number(math.Round(arg(args, 0).ToNumber())) })
	def("abs", func(args []Value) Value { return Number(math.Abs(arg(args, 0).ToNumber())) })
	def("sqrt", func(args []Value) Value { return Number(math.Sqrt(arg(args, 0).ToNumber())) })
	def("pow", func(args []Value) Value {
		return Number(math.Pow(arg(args, 0).ToNumber(), arg(args, 1).ToNumber()))
	})
	def("max", func(args []Value) Value {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, a.ToNumber())
		}
		return Number(out)
	})
	def("min", func(args []Value) Value {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, a.ToNumber())
		}
		return Number(out)
	})
	m.SetNonEnum("PI", Number(math.Pi))
	it.Global.SetNonEnum("Math", ObjectValue(m))

	// JSON
	j := it.NewObjectP()
	j.Class = "JSON"
	j.SetNonEnum("stringify", ObjectValue(it.NewNative("stringify", func(it *Interp, this Value, args []Value) (Value, error) {
		s, err := jsonStringify(arg(args, 0), map[*Object]bool{})
		if err != nil {
			return Undefined(), it.ThrowError("TypeError", "%s", err.Error())
		}
		return String(s), nil
	})))
	j.SetNonEnum("parse", ObjectValue(it.NewNative("parse", func(it *Interp, this Value, args []Value) (Value, error) {
		v, err := jsonParse(it, arg(args, 0).ToString())
		if err != nil {
			return Undefined(), it.ThrowError("SyntaxError", "JSON.parse: %s", err.Error())
		}
		return v, nil
	})))
	it.Global.SetNonEnum("JSON", ObjectValue(j))
}

func installGlobalsMisc(it *Interp) {
	g := it.Global
	g.SetNonEnum("parseInt", ObjectValue(it.NewNative("parseInt", func(it *Interp, this Value, args []Value) (Value, error) {
		s := strings.TrimSpace(arg(args, 0).ToString())
		radix := 10
		if len(args) > 1 && !args[1].IsUndefined() {
			radix = int(args[1].ToNumber())
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			s = s[2:]
			radix = 16
		}
		end := 0
		for end < len(s) {
			c := s[end]
			if end == 0 && (c == '-' || c == '+') {
				end++
				continue
			}
			d := digitVal(c)
			if d < 0 || d >= radix {
				break
			}
			end++
		}
		n, err := strconv.ParseInt(s[:end], radix, 64)
		if err != nil {
			return Number(math.NaN()), nil
		}
		return Number(float64(n)), nil
	})))
	g.SetNonEnum("parseFloat", ObjectValue(it.NewNative("parseFloat", func(it *Interp, this Value, args []Value) (Value, error) {
		return Number(String(arg(args, 0).ToString()).ToNumber()), nil
	})))
	g.SetNonEnum("isNaN", ObjectValue(it.NewNative("isNaN", func(it *Interp, this Value, args []Value) (Value, error) {
		return Boolean(math.IsNaN(arg(args, 0).ToNumber())), nil
	})))
	g.SetNonEnum("NaN", Number(math.NaN()))
	g.SetNonEnum("Infinity", Number(math.Inf(1)))
	g.SetNonEnum("globalThis", ObjectValue(g))
	g.SetNonEnum("eval", ObjectValue(it.NewNative("eval", func(it *Interp, this Value, args []Value) (Value, error) {
		src := arg(args, 0)
		if src.Kind != KindString {
			return src, nil
		}
		prog, err := Parse(src.Str, "eval")
		if err != nil {
			return Undefined(), it.ThrowError("SyntaxError", "%s", err.Error())
		}
		if it.EvalHook != nil {
			it.EvalHook(src.Str)
		}
		// indirect-eval semantics: run at global scope, sharing the
		// caller's step budget
		frame := it.pushFrame(Frame{FnName: "eval", Script: "eval", Line: 1})
		defer it.popFrame()
		return it.runToplevel(Compile(prog).compiled, frame)
	})))

	// console.log collecting into it.ConsoleLog (the host may replace it).
	console := it.NewObjectP()
	console.Class = "Console"
	logFn := func(it *Interp, this Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.ToString()
		}
		it.ConsoleLog = append(it.ConsoleLog, strings.Join(parts, " "))
		return Undefined(), nil
	}
	console.SetNonEnum("log", ObjectValue(it.NewNative("log", logFn)))
	console.SetNonEnum("warn", ObjectValue(it.NewNative("warn", logFn)))
	console.SetNonEnum("error", ObjectValue(it.NewNative("error", logFn)))
	g.SetNonEnum("console", ObjectValue(console))
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

// jsonStringify renders v as JSON; functions and undefined map to an error at
// the top level and are skipped inside objects (like the real JSON.stringify
// returning undefined — we simplify to "null").
func jsonStringify(v Value, seen map[*Object]bool) (string, error) {
	switch v.Kind {
	case KindUndefined:
		return "null", nil
	case KindNull:
		return "null", nil
	case KindBool, KindNumber:
		return v.ToString(), nil
	case KindString:
		return strconv.Quote(v.Str), nil
	}
	o := v.Obj
	if seen[o] {
		return "", fmt.Errorf("cyclic object value")
	}
	seen[o] = true
	defer delete(seen, o)
	if o.fnd != nil && (o.fnd.Fn != nil || o.fnd.Native != nil) {
		return "null", nil
	}
	var b strings.Builder
	if o.Class == "Array" {
		b.WriteByte('[')
		for i, e := range o.Elems {
			if i > 0 {
				b.WriteByte(',')
			}
			s, err := jsonStringify(e, seen)
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		}
		b.WriteByte(']')
		return b.String(), nil
	}
	b.WriteByte('{')
	first := true
	for _, k := range o.OwnKeys(true) {
		p := o.GetOwn(k)
		if p == nil || p.Accessor {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Quote(k))
		b.WriteByte(':')
		s, err := jsonStringify(p.Value, seen)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	b.WriteByte('}')
	return b.String(), nil
}

// jsonParse is a minimal JSON reader producing minjs values.
func jsonParse(it *Interp, s string) (Value, error) {
	p := &jsonParser{src: s}
	v, err := p.value(it)
	if err != nil {
		return Undefined(), err
	}
	p.ws()
	if p.pos != len(p.src) {
		return Undefined(), fmt.Errorf("trailing characters at %d", p.pos)
	}
	return v, nil
}

type jsonParser struct {
	src string
	pos int
}

func (p *jsonParser) ws() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) value(it *Interp) (Value, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return Undefined(), fmt.Errorf("unexpected end of input")
	}
	c := p.src[p.pos]
	switch {
	case c == '{':
		p.pos++
		o := it.NewObjectP()
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '}' {
			p.pos++
			return ObjectValue(o), nil
		}
		for {
			p.ws()
			k, err := p.str()
			if err != nil {
				return Undefined(), err
			}
			p.ws()
			if p.pos >= len(p.src) || p.src[p.pos] != ':' {
				return Undefined(), fmt.Errorf("expected ':'")
			}
			p.pos++
			v, err := p.value(it)
			if err != nil {
				return Undefined(), err
			}
			o.Set(k, v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == '}' {
				p.pos++
				return ObjectValue(o), nil
			}
			return Undefined(), fmt.Errorf("expected ',' or '}'")
		}
	case c == '[':
		p.pos++
		arr := it.NewArrayP()
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == ']' {
			p.pos++
			return ObjectValue(arr), nil
		}
		for {
			v, err := p.value(it)
			if err != nil {
				return Undefined(), err
			}
			arr.Elems = append(arr.Elems, v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == ']' {
				p.pos++
				return ObjectValue(arr), nil
			}
			return Undefined(), fmt.Errorf("expected ',' or ']'")
		}
	case c == '"':
		s, err := p.str()
		if err != nil {
			return Undefined(), err
		}
		return String(s), nil
	case strings.HasPrefix(p.src[p.pos:], "true"):
		p.pos += 4
		return Boolean(true), nil
	case strings.HasPrefix(p.src[p.pos:], "false"):
		p.pos += 5
		return Boolean(false), nil
	case strings.HasPrefix(p.src[p.pos:], "null"):
		p.pos += 4
		return Null(), nil
	default:
		start := p.pos
		for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || strings.ContainsRune("+-.eE", rune(p.src[p.pos]))) {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return Undefined(), fmt.Errorf("bad number at %d", start)
		}
		return Number(f), nil
	}
}

func (p *jsonParser) str() (string, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '"' {
		return "", fmt.Errorf("expected string at %d", p.pos)
	}
	end := p.pos + 1
	for end < len(p.src) && p.src[end] != '"' {
		if p.src[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(p.src) {
		return "", fmt.Errorf("unterminated string")
	}
	s, err := strconv.Unquote(p.src[p.pos : end+1])
	if err != nil {
		return "", err
	}
	p.pos = end + 1
	return s, nil
}
