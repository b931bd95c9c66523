package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pj2k/internal/amdahl"
	"pj2k/internal/core"
	"pj2k/internal/dwt"
	"pj2k/internal/jp2k"
	"pj2k/internal/raster"
	"pj2k/internal/t2"
)

// hostRounds is how many timed runs each (shape, direction, worker count)
// gets; the fastest is kept — the one the host disturbed least. The rounds
// visit every shape in turn, so a slow spell of the host (a second vCPU that
// takes its first seconds of load to come up, a noisy neighbour) costs each
// row one sample instead of costing one row all of them.
const hostRounds = 5

// hostShape is one image of the host scaling table with the options it is
// coded with (the four shapes of the repo benchmark's batch corpus).
type hostShape struct {
	name string
	pl   *raster.Planar
	opts jp2k.Options
}

func hostShapes(side int) []hostShape {
	gray := func(seed uint64) *raster.Planar { return raster.Gray(raster.Synthetic(side, side, seed)) }
	half := side / 2
	return []hostShape{
		{"one-tile 5/3", gray(1),
			jp2k.Options{Kernel: dwt.Rev53}},
		{"tiled 9/7 + layers", gray(2),
			jp2k.Options{Kernel: dwt.Irr97, LayerBPP: []float64{0.25, 1.0}, TileW: side / 4, TileH: side / 4}},
		{"bypass+termall", raster.Gray(raster.SyntheticRadiograph(side, side, 3)),
			jp2k.Options{Kernel: dwt.Rev53, BitDepth: 12,
				Coder: jp2k.CoderOptions{Bypass: true, TermAll: true}}},
		{"colour + MCT", raster.RGB(raster.Synthetic(half, half, 4), raster.Synthetic(half, half, 5), raster.Synthetic(half, half, 6)),
			jp2k.Options{Kernel: dwt.Irr97, MCT: true, LayerBPP: []float64{1.0}}},
	}
}

// hostRun is one timed call: its wall time, the stage spans the codec
// reported for it, and the paper's serial/parallel split of them.
type hostRun struct {
	wall   time.Duration
	stages []time.Duration
	prof   amdahl.Profile
	coded  string // encode runs: tier-1 passes coded / possible
}

// keep replaces best by r when r is the faster (or the first) run.
func (best *hostRun) keep(r hostRun) {
	if best.wall == 0 || r.wall < best.wall {
		*best = r
	}
}

// HostScaling is the paper's Sec. 3.4 table on this host's real goroutines
// instead of the smp model: for each corpus shape, one pooled encoder and
// decoder run at Workers=1 and Workers=NumCPU (warm, best of hostRounds), and
// the measured speedup — of the whole call and of every stage — stands beside
// Amdahl's bound from the serial fraction measured at Workers=1. The
// codestream and the decoded samples must not depend on the worker count; a
// difference panics.
func HostScaling(side int) *Table {
	p := runtime.NumCPU()
	t := &Table{
		Title:   fmt.Sprintf("Sec. 3.4 on this host — measured vs Amdahl speedup, Workers=%d over Workers=1 (%dx%d, best of %d)", p, side, side, hostRounds),
		Columns: []string{"shape", "op", "stage", "w=1 ms", fmt.Sprintf("w=%d ms", p), "speedup", "bound", "coded/possible"},
		Notes: []string{
			"coded/possible: tier-1 coding passes run over the passes full coding would run; below 1",
			"where rate control lets tier-1 stop early, which shrinks the parallel stage and so the bound.",
			"bound, total rows: Amdahl's speedup from the Workers=1 stage times split by the codec's",
			"stage classes (jp2k.EncStageParallel / DecStageParallel).",
			"bound, stage rows: P for a stage of the parallel class, 1 for the serial tail; rate and",
			"tier-2 fan out per component and per tile, so they may beat 1 on colour and tiled shapes.",
		},
	}
	pool := core.NewPool(p)
	defer pool.Close()
	enc, dec := jp2k.NewEncoderWithPool(pool), jp2k.NewDecoderWithPool(pool)
	defer enc.Close()
	defer dec.Close()

	encode := func(sh *hostShape, workers int) ([]byte, hostRun) {
		opts := sh.opts
		opts.Workers = workers
		t0 := time.Now()
		cs, st, err := enc.EncodePlanar(sh.pl, opts)
		wall := time.Since(t0)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: encode failed: %v", sh.name, err))
		}
		tm := st.Timings
		spans := tm.Spans()
		return cs, hostRun{wall, spans[:], tm.Profile(),
			fmt.Sprintf("%.2f (%d/%d)", st.CodedShare(), st.PassesCoded, st.PassesPossible)}
	}
	decode := func(sh *hostShape, cs []byte, workers int) (*raster.Planar, hostRun) {
		t0 := time.Now()
		pl, err := dec.DecodePlanarSource(t2.BytesSource(cs), jp2k.DecodeOptions{Workers: workers})
		wall := time.Since(t0)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: decode failed: %v", sh.name, err))
		}
		tm := dec.Stats().Timings
		spans := tm.Spans()
		return pl, hostRun{wall, spans[:], tm.Profile(), "-"}
	}

	// One untimed pass at full width sizes every worker's state and leaves the
	// references the timed runs must reproduce.
	shapes := hostShapes(side)
	type result struct {
		ref      []byte
		want     *raster.Planar
		enc, dec [2]hostRun // at Workers=1, Workers=P
	}
	res := make([]result, len(shapes))
	for i := range shapes {
		res[i].ref, _ = encode(&shapes[i], p)
		res[i].want, _ = decode(&shapes[i], res[i].ref, p)
	}
	for round := 0; round < hostRounds; round++ {
		for i := range shapes {
			sh, r := &shapes[i], &res[i]
			for k, workers := range [2]int{1, p} {
				cs, er := encode(sh, workers)
				if !bytes.Equal(cs, r.ref) {
					panic(fmt.Sprintf("experiments: %s: the codestream at Workers=%d differs from the one at Workers=%d", sh.name, workers, p))
				}
				r.enc[k].keep(er)
				pl, dr := decode(sh, r.ref, workers)
				if !raster.PlanarEqual(pl, r.want) {
					panic(fmt.Sprintf("experiments: %s: the image decoded at Workers=%d differs from the one at Workers=%d", sh.name, workers, p))
				}
				r.dec[k].keep(dr)
			}
		}
	}

	ms2 := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	emit := func(shape, op string, runs [2]hostRun, names []string, parallel []bool) {
		one, par := runs[0], runs[1]
		t.Rows = append(t.Rows, []string{shape, op, "total", ms2(one.wall), ms2(par.wall),
			f2(one.wall.Seconds() / par.wall.Seconds()), f2(one.prof.Speedup(p)), one.coded})
		for i, n := range names {
			bound := 1
			if parallel[i] {
				bound = p
			}
			sp := "-"
			if par.stages[i] > 0 {
				sp = f2(one.stages[i].Seconds() / par.stages[i].Seconds())
			}
			t.Rows = append(t.Rows, []string{"", "", n, ms2(one.stages[i]), ms2(par.stages[i]), sp, f2(float64(bound)), ""})
		}
	}
	for i, sh := range shapes {
		emit(sh.name, "encode", res[i].enc, jp2k.EncStageNames[:], jp2k.EncStageParallel[:])
		emit("", "decode", res[i].dec, jp2k.DecStageNames[:], jp2k.DecStageParallel[:])
	}
	return t
}
