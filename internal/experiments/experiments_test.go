package experiments

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pj2k/internal/cachesim"
	"pj2k/internal/jp2k"
	"pj2k/internal/smp"
)

// cell parses table cell (r, c) as a float.
func cell(t *testing.T, tb *Table, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tb.Rows[r][c]), 64)
	if err != nil {
		t.Fatalf("table %q cell (%d,%d) = %q: %v", tb.Title, r, c, tb.Rows[r][c], err)
	}
	return v
}

func TestTablePrinting(t *testing.T) {
	tb := &Table{
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tb := Fig2([]int{256})
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 4 {
		t.Fatalf("bad table shape: %+v", tb.Rows)
	}
	jpeg := cell(t, tb, 0, 1)
	spiht := cell(t, tb, 0, 2)
	j2k := cell(t, tb, 0, 3)
	// The paper's central ordering.
	if !(jpeg < spiht && spiht < j2k) {
		t.Fatalf("timing order violated: JPEG %.3f, SPIHT %.3f, JPEG2000 %.3f", jpeg, spiht, j2k)
	}
}

func TestFig3Shape(t *testing.T) {
	tb := Fig3([]int{256})
	// DWT + tier-1 must dominate the serial profile.
	dwt := cell(t, tb, 0, 2)
	t1 := cell(t, tb, 0, 4)
	ra := cell(t, tb, 0, 5)
	t2 := cell(t, tb, 0, 6)
	if dwt+t1 < 5*(ra+t2+1) {
		t.Fatalf("DWT+tier-1 (%v) do not dominate R/D+tier-2 (%v)", dwt+t1, ra+t2)
	}
}

func TestFig5TilingPenalty(t *testing.T) {
	tb := Fig5()
	// At every bitrate, 32x32 tiles must not beat whole-image coding, and
	// at the lowest bitrate the gap must be large.
	for r := range tb.Rows {
		whole := cell(t, tb, r, 1)
		tiny := cell(t, tb, r, 5)
		if tiny > whole+0.01 {
			t.Fatalf("row %d: 32x32 tiles PSNR %.2f beats whole image %.2f", r, tiny, whole)
		}
	}
	last := len(tb.Rows) - 1
	if gap := cell(t, tb, last, 1) - cell(t, tb, last, 5); gap < 5 {
		t.Fatalf("lowest-rate tiling gap only %.2f dB", gap)
	}
}

func TestFig8Saturation(t *testing.T) {
	tb := Fig8(1024)
	// Row 3 (4 CPUs): naive vertical saturates, improved and horizontal
	// scale.
	naive := cell(t, tb, 3, 2)
	improved := cell(t, tb, 3, 3)
	horiz := cell(t, tb, 3, 4)
	if naive > 2.5 {
		t.Fatalf("naive vertical speedup %.2f; should saturate below 2.5", naive)
	}
	if improved < 3.5 || horiz < 3.5 {
		t.Fatalf("improved %.2f / horizontal %.2f should be near-linear", improved, horiz)
	}
}

func TestFig11ModifiedFilteringGain(t *testing.T) {
	tb := Fig11()
	last := len(tb.Rows) - 1
	orig := cell(t, tb, last, 1)
	mod := cell(t, tb, last, 2)
	// Paper: ~80x for modified vs ~saturated original.
	if mod < 40 {
		t.Fatalf("modified filtering gain %.1f at 16 CPUs; want the paper's tens", mod)
	}
	if orig > mod/2 {
		t.Fatalf("original filter (%.1f) should saturate far below modified (%.1f)", orig, mod)
	}
}

func TestFig12Fig13PaperShape(t *testing.T) {
	tb12 := Fig12(16384)
	last := len(tb12.Rows) - 1
	full := cell(t, tb12, last, 2)
	if full < 4 || full > 6.5 {
		t.Fatalf("Fig12 total speedup %.2f at 16 CPUs; paper ~5", full)
	}
	tb13 := Fig13(16384)
	classic := cell(t, tb13, len(tb13.Rows)-1, 1)
	if classic < 1.8 || classic > 3.2 {
		t.Fatalf("Fig13 classical speedup %.2f; paper ~2", classic)
	}
	if classic >= full {
		t.Fatal("classical speedup must be below the vs-original speedup")
	}
}

func TestAmdahlConsistency(t *testing.T) {
	tb := Amdahl(1024)
	for r := range tb.Rows {
		theo := cell(t, tb, r, 2)
		prac := cell(t, tb, r, 3)
		if prac > theo+0.01 {
			t.Fatalf("row %d: practical %.2f exceeds theoretical %.2f", r, prac, theo)
		}
	}
	// The filter fix must not increase the parallel fraction.
	if cell(t, tb, 1, 1) > cell(t, tb, 0, 1)+0.01 {
		t.Fatal("improved filtering should shrink the parallel fraction")
	}
}

func TestPaperSharesSumToOne(t *testing.T) {
	for _, kp := range []int{128, 256, 1024, 4096, 16384, 65536} {
		s := paperShares(kp)
		sum := s.serial + s.dwt + s.quant + s.t1
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("kpix %d: shares sum to %v", kp, sum)
		}
		if s.t1 <= 0 {
			t.Fatalf("kpix %d: non-positive tier-1 share", kp)
		}
	}
}

func TestBuildModelPairInvariants(t *testing.T) {
	m := smp.PentiumIIXeon(4)
	orig, impr := buildModelPair(m, cachesim.NewPentiumII(), 1024)
	// The improved profile differs only in the vertical filter work.
	if orig.t1 != impr.t1 || orig.imageIO != impr.imageIO {
		t.Fatal("profiles must share non-DWT stages")
	}
	if impr.vert.Misses >= orig.vert.Misses {
		t.Fatal("improved filtering must reduce misses")
	}
	// Naive DWT serial time must match its Fig. 3 share.
	sh := paperShares(1024)
	total := paperTotalSec(m, 1024)
	gotDWT := m.SerialTime(smp.Work{
		Ops:    orig.vert.Ops + orig.horiz.Ops,
		Misses: orig.vert.Misses + orig.horiz.Misses,
	})
	if rel := gotDWT/(sh.dwt*total) - 1; rel > 0.01 || rel < -0.01 {
		t.Fatalf("DWT share calibration off by %.3f", rel)
	}
	// Serial times scale down with CPUs; totals are monotone.
	prev := orig.totalTime(m, 1)
	for p := 2; p <= 4; p++ {
		cur := orig.totalTime(m, p)
		if cur > prev {
			t.Fatalf("model total time rose from %v to %v at p=%d", prev, cur, p)
		}
		prev = cur
	}
}

func TestQuantSpeedupShape(t *testing.T) {
	tb := QuantSpeedup(1024)
	if got := cell(t, tb, 3, 1); got < 3 {
		t.Fatalf("quantization speedup %.2f at 4 CPUs; paper ~3.2", got)
	}
}

// TestHostScalingShape runs the host table small: four shapes, an encode and a
// decode block of a total row plus one row per stage each, every speedup a
// positive number and every total-row bound within [1, NumCPU] — and, by not
// panicking, the codestream and the decoded samples equal at both worker
// counts. It asserts no speed.
func TestHostScalingShape(t *testing.T) {
	tb := HostScaling(128)
	if want := 4 * (2 + jp2k.NumEncStages + jp2k.NumDecStages); len(tb.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tb.Rows), want)
	}
	p := float64(runtime.NumCPU())
	for r, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d has %d cells, want %d", r, len(row), len(tb.Columns))
		}
		if row[2] != "total" {
			continue
		}
		if sp := cell(t, tb, r, 5); sp <= 0 {
			t.Fatalf("row %d: speedup %v", r, sp)
		}
		if b := cell(t, tb, r, 6); b < 1 || b > p+0.005 {
			t.Fatalf("row %d: Amdahl bound %v outside [1, %v]", r, b, p)
		}
	}
}
