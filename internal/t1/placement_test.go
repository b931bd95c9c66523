package t1

import (
	"reflect"
	"testing"

	"pj2k/internal/core"
)

// smallPointees walks typ's fields and reports every pointer to a struct
// smaller than core.CacheLinePad: such a struct is a small heap object the
// allocator packs beside its neighbours, which is how two workers' MQ
// registers came to share a cache line.
func smallPointees(t *testing.T, typ reflect.Type, path string) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			smallPointees(t, f.Type, path+"."+f.Name)
		}
	case reflect.Array:
		smallPointees(t, typ.Elem(), path+"[]")
	case reflect.Pointer:
		if e := typ.Elem(); e.Kind() == reflect.Struct && e.Size() < core.CacheLinePad {
			t.Errorf("%s points to a %d-byte %s: hold it by value, or it lands in a cache line with another worker's", path, e.Size(), e)
		}
	}
}

// TestPerWorkerStateHeldByValue is the companion of jp2k's
// TestPerWorkerStateOwnsItsLines, which can only see a Coder's or a
// BlockDecoder's own extent: it pins that the state written on every symbol
// lies inside that extent — held by value, not behind a pointer.
func TestPerWorkerStateHeldByValue(t *testing.T) {
	smallPointees(t, reflect.TypeOf(Coder{}), "Coder")
	smallPointees(t, reflect.TypeOf(BlockDecoder{}), "BlockDecoder")
}
