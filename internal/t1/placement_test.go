package t1

import (
	"reflect"
	"testing"
	"unsafe"

	"pj2k/internal/core"
)

// smallPointees walks typ's fields and reports every pointer to a struct
// smaller than core.CacheLinePad: such a struct is a small heap object the
// allocator packs beside its neighbours, which is how two workers' MQ
// registers came to share a cache line.
func smallPointees(t *testing.T, typ reflect.Type, path string, shared map[string]bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			smallPointees(t, f.Type, path+"."+f.Name, shared)
		}
	case reflect.Array:
		smallPointees(t, typ.Elem(), path+"[]", shared)
	case reflect.Pointer:
		if e := typ.Elem(); e.Kind() == reflect.Struct && e.Size() < core.CacheLinePad && !shared[path] {
			t.Errorf("%s points to a %d-byte %s: hold it by value, or it lands in a cache line with another worker's", path, e.Size(), e)
		}
	}
}

// TestPerWorkerStateHeldByValue is the companion of jp2k's
// TestPerWorkerStateOwnsItsLines, which can only see a Coder's or a
// BlockDecoder's own extent: it pins that the state written on every symbol
// lies inside that extent — held by value, not behind a pointer — and that
// the two raw readers a forked decode drives from two goroutines are a full
// pad apart.
func TestPerWorkerStateHeldByValue(t *testing.T) {
	// The dispatch pool is shared between workers by design.
	shared := map[string]bool{"BlockDecoder.Pool": true}
	smallPointees(t, reflect.TypeOf(Coder{}), "Coder", shared)
	smallPointees(t, reflect.TypeOf(BlockDecoder{}), "BlockDecoder", shared)

	var bd BlockDecoder
	if gap := unsafe.Offsetof(bd.rr2) - (unsafe.Offsetof(bd.rr) + unsafe.Sizeof(bd.rr)); gap < core.CacheLinePad {
		t.Errorf("BlockDecoder.rr and .rr2 are %d bytes apart, want >= %d: the forked SP and MR passes write them concurrently", gap, core.CacheLinePad)
	}
	// What follows rr2 must not be written by the significance pass either.
	if end := unsafe.Offsetof(bd.parFn) + unsafe.Sizeof(bd.parFn); end != unsafe.Sizeof(bd) {
		t.Errorf("BlockDecoder has fields after the forked pass's state (ends at %d of %d): keep rr2 and its list last", end, unsafe.Sizeof(bd))
	}
}
