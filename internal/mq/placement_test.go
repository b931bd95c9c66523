package mq

import (
	"testing"
	"unsafe"
)

// TestPerWorkerStateFitsOneLine pins the size of the coder registers: both
// structs are embedded by value in per-worker blocks (t1.Coder,
// t1.BlockDecoder) and touched on every decision, so each must stay within one
// 64-byte cache line's worth of state.
func TestPerWorkerStateFitsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(Encoder{}); n > 64 {
		t.Errorf("Encoder is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(Decoder{}); n > 64 {
		t.Errorf("Decoder is %d bytes, want <= 64", n)
	}
}
