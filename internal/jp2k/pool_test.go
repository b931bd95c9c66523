package jp2k

import (
	"runtime"
	"testing"
	"time"

	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/raster"
)

// waitGoroutines polls until the process goroutine count drops back to n (or
// the deadline passes); pool workers unwind asynchronously after Close's join
// returns them from their loops.
func waitGoroutines(n int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestCodecCloseReleasesWorkers: an Encoder/Decoder built with NewEncoder/
// NewDecoder owns its worker pool, and Close joins those resident workers —
// codec instances must not leak goroutines into a long-lived process.
func TestCodecCloseReleasesWorkers(t *testing.T) {
	im := raster.Synthetic(128, 96, 11)
	before := runtime.NumGoroutine()
	enc := NewEncoder()
	cs, _, err := enc.Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(cs, DecodeOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	enc.Close()
	dec.Close()
	if n := waitGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Close, started with %d", n, before)
	}
}

// TestCodecSharedPoolSurvivesClose: codecs on a caller-owned pool must not
// tear it down on Close — the server shape, where many pooled Decoders come
// and go over one resident worker set.
func TestCodecSharedPoolSurvivesClose(t *testing.T) {
	pool := core.NewPool(2)
	defer pool.Close()
	im := raster.Synthetic(96, 64, 12)
	enc := NewEncoderWithPool(pool)
	cs, _, err := enc.Encode(im, Options{Kernel: dwt.Irr97, LayerBPP: []float64{1.0}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	enc.Close()
	// The pool must still dispatch: a second codec keeps working on it.
	dec := NewDecoderWithPool(pool)
	defer dec.Close()
	got, err := dec.Decode(cs, DecodeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(cs, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(got, want) {
		t.Fatal("shared-pool decode differs from one-shot decode")
	}
}

// TestWorkersOneDecodesInline: DecodeOptions.Workers bounds every goroutine
// a decode uses, in every coder mode — a Workers=1 decode runs on the calling
// goroutine and never dispatches onto the pool, however many workers it has.
func TestWorkersOneDecodesInline(t *testing.T) {
	im := raster.Synthetic(128, 96, 13)
	for _, c := range []struct {
		name  string
		coder CoderOptions
		res   ResilienceOptions
	}{
		{"default", CoderOptions{}, ResilienceOptions{}},
		{"bypass-termall", CoderOptions{Bypass: true, TermAll: true}, ResilienceOptions{}},
		{"bypass-termall-segsym", CoderOptions{Bypass: true, TermAll: true}, ResilienceOptions{SegSymbols: true}},
		{"termall-reset-causal", CoderOptions{TermAll: true, ResetCtx: true, Causal: true}, ResilienceOptions{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cs, _, err := Encode(im, Options{
				Kernel: dwt.Rev53, TileW: 64, TileH: 64, Workers: 1, Coder: c.coder, Resilience: c.res,
			})
			if err != nil {
				t.Fatal(err)
			}
			pool := core.NewPool(2)
			defer pool.Close()
			dec := NewDecoderWithPool(pool)
			defer dec.Close()
			got, err := dec.Decode(cs, DecodeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !raster.Equal(got, im) {
				t.Fatal("lossless round trip differs")
			}
			if n := pool.Stats().Dispatches; n != 0 {
				t.Fatalf("Workers=1 decode made %d pool dispatches, want 0", n)
			}
		})
	}
}
