package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pj2k/internal/raster"
)

// TestCLIRoundTripKeepsDepth builds pj2kenc and pj2kdec and runs a lossless
// encode then a decode with default flags over an 8-bit PGM, a 12-bit PGM
// (maxval 4095) and an 8-bit PPM: each output file must equal its input byte
// for byte, header included, so neither tool may change the sample depth.
// Then pj2kenc must refuse -levels 0 (which the library reads as "default")
// and -levels 33, exiting non-zero with the valid range and writing nothing.
func TestCLIRoundTripKeepsDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both commands")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "pj2k/cmd/pj2kenc", "pj2k/cmd/pj2kdec")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	synth := func(seed uint64, bits uint) *raster.Image {
		im := raster.Synthetic(64, 48, seed)
		for i, v := range im.Pix {
			im.Pix[i] = (v&0xFF)<<(bits-8) | int32(i)&(1<<(bits-8)-1)
		}
		return im
	}
	var gray8, gray12, color bytes.Buffer
	if err := raster.WritePGM(&gray8, synth(1, 8), 255); err != nil {
		t.Fatal(err)
	}
	if err := raster.WritePGM(&gray12, synth(2, 12), 4095); err != nil {
		t.Fatal(err)
	}
	if err := raster.WritePPM(&color, &raster.Planar{Comps: []*raster.Image{synth(3, 8), synth(4, 8), synth(5, 8)}}, 255); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"gray8.pgm": gray8.Bytes(), "gray12.pgm": gray12.Bytes(), "color.ppm": color.Bytes()} {
		src, cs, dst := filepath.Join(dir, name), filepath.Join(dir, name+".j2k"), filepath.Join(dir, "rt-"+name)
		if err := os.WriteFile(src, in, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{filepath.Join(dir, "pj2kenc"), "-in", src, "-out", cs, "-lossless"},
			{filepath.Join(dir, "pj2kdec"), "-in", cs, "-out", dst},
		} {
			if out, err := exec.Command(args[0], args[1:]...).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", filepath.Base(args[0]), err, out)
			}
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, in) {
			t.Errorf("%s: round trip gives %d bytes that differ from the %d-byte input", name, len(got), len(in))
		}
	}
	for _, levels := range []string{"0", "-1", "33"} {
		cs := filepath.Join(dir, "levels"+levels+".j2k")
		out, err := exec.Command(filepath.Join(dir, "pj2kenc"), "-in", filepath.Join(dir, "gray8.pgm"), "-out", cs, "-levels", levels).CombinedOutput()
		if err == nil {
			t.Errorf("pj2kenc -levels %s exited 0", levels)
		}
		if !bytes.Contains(out, []byte("1-32")) {
			t.Errorf("pj2kenc -levels %s: message %q does not name the range 1-32", levels, out)
		}
		if _, err := os.Stat(cs); !os.IsNotExist(err) {
			t.Errorf("pj2kenc -levels %s wrote %s", levels, cs)
		}
	}
}
