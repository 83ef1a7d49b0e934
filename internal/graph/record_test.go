package graph

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestNodeRecordIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 64 {
		t.Fatalf("node record is %d bytes; want 64 (one cache line)", size)
	}
	// A pointer anywhere in the record would make every page of it
	// GC-scanned.
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(node{})) {
		t.Fatal("node record holds a pointer-bearing field")
	}
}

func TestUnallocatedIDsReadAsAbsent(t *testing.T) {
	g := NewWithNodes(3)
	g.AddEdge(0, 1)
	for _, id := range []NodeID{None, -7, 3, 1 << 30} {
		if g.Alive(id) || g.Degree(id) != 0 || g.Neighbors(id) != nil || g.HasEdge(id, 0) || g.HasEdge(0, id) {
			t.Fatalf("id %d: alive %v degree %d neighbours %v", id, g.Alive(id), g.Degree(id), g.Neighbors(id))
		}
	}
}
