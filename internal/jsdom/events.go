package jsdom

import "gullible/internal/minjs"

// buildEvents installs the Event and CustomEvent constructors. Events are
// plain objects with type/detail fields; OpenWPM's vanilla instrument uses
// CustomEvent + document.dispatchEvent as its message transport.
func (d *DOM) buildEvents() {
	evProto := d.Protos["Event"]
	ceProto := d.Protos["CustomEvent"]
	ceProto.Proto = evProto

	// name is also the key of the constructor's prototype in Protos
	makeCtor := func(name string, proto *minjs.Object, withDetail bool) *minjs.Object {
		ctor := d.native(name, func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			d := realmOf(it)
			ev := this
			if !ev.IsObject() || ev.Obj == it.Global {
				ev = minjs.ObjectValue(minjs.NewObject(d.Protos[name]))
			}
			ev.Obj.Class = name
			ev.Obj.Set("type", minjs.String(argStr(args, 0)))
			ev.Obj.Set("bubbles", minjs.Boolean(false))
			ev.Obj.Set("cancelable", minjs.Boolean(false))
			ev.Obj.Set("timeStamp", minjs.Number(d.Host.Now()))
			if withDetail {
				init := argVal(args, 1)
				detail := minjs.Undefined()
				if init.IsObject() {
					detail, _ = it.GetMember(init, "detail")
				}
				ev.Obj.Set("detail", detail)
			}
			return ev, nil
		})
		ctor.SetNonEnum("prototype", minjs.ObjectValue(proto))
		proto.SetNonEnum("constructor", minjs.ObjectValue(ctor))
		return ctor
	}
	d.Window.SetNonEnum("Event", minjs.ObjectValue(makeCtor("Event", evProto, false)))
	d.Window.SetNonEnum("CustomEvent", minjs.ObjectValue(makeCtor("CustomEvent", ceProto, true)))

	d.DefineMethod(evProto, "preventDefault", returnUndefined)
	d.DefineMethod(evProto, "stopPropagation", returnUndefined)
}

// FireListeners invokes page-registered listeners for event type with a fresh
// Event object; the crawler uses this to simulate interaction (hover, click).
func (d *DOM) FireListeners(eventType string) error {
	listeners := d.pageListeners[eventType]
	if len(listeners) == 0 {
		return nil
	}
	ev := minjs.NewObject(d.Protos["Event"])
	ev.Class = "Event"
	ev.Set("type", minjs.String(eventType))
	for _, fn := range listeners {
		if _, err := d.It.CallFunction(fn, minjs.ObjectValue(d.Document), []minjs.Value{minjs.ObjectValue(ev)}); err != nil {
			return err
		}
	}
	return nil
}
