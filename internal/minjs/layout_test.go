package minjs

import (
	"testing"
	"unsafe"
)

// sizeClasses are the Go allocator's small-object size classes from 6,912
// to 32,768 bytes, as listed in runtime/sizeclasses.go (go1.22 to go1.24).
// Every arena chunk falls in this range; a chunk rounds up to the first
// class that holds it.
var sizeClasses = []uintptr{6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

// The realm's hot structs are sized by hand: a field added carelessly
// grows every object, scope or function of every realm, and an arena chunk
// that overshoots a size class wastes its tail on every chunk.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 152 {
		t.Errorf("Object is %d bytes, want 152", got)
	}
	if got := unsafe.Sizeof(Scope{}); got != 72 {
		t.Errorf("Scope is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(funcObject{}); got > 200 {
		t.Errorf("funcObject is %d bytes, want at most 200", got)
	}
	chunks := []struct {
		name  string
		bytes uintptr
	}{
		{"objArenaChunk", objArenaChunk * unsafe.Sizeof(Object{})},
		{"fnArenaChunk", fnArenaChunk * unsafe.Sizeof(funcObject{})},
		{"scopeArenaChunk", scopeArenaChunk * unsafe.Sizeof(Scope{})},
		{"slotArenaChunk of Values", slotArenaChunk * unsafe.Sizeof(Value{})},
		{"slotArenaChunk of strings", slotArenaChunk * unsafe.Sizeof("")},
	}
	for _, c := range chunks {
		if c.bytes <= sizeClasses[0] || c.bytes > sizeClasses[len(sizeClasses)-1] {
			t.Errorf("%s is %d bytes, outside the embedded size classes", c.name, c.bytes)
			continue
		}
		class := sizeClasses[0]
		for _, sc := range sizeClasses {
			if sc >= c.bytes {
				class = sc
				break
			}
		}
		if tail := class - c.bytes; tail*50 > class {
			t.Errorf("%s is %d bytes in the %d-byte size class: %d bytes (%.1f%%) of tail, want at most 2%%",
				c.name, c.bytes, class, tail, 100*float64(tail)/float64(class))
		}
	}
}
