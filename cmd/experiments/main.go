// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Run with -run all (default) or a comma-separated list
// of experiment ids: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12 fig13 quant amdahl hostscaling.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pj2k/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (fig2..fig13, quant, amdahl, hostscaling) or 'all'")
	big := flag.Bool("big", false, "include the full 16384-Kpixel sizes (slow)")
	flag.Parse()

	sizes := []int{256, 1024, 4096}
	filterSide := 2048
	modelKpix := 1024
	hostSide := 512
	if *big {
		hostSide = 1024
		sizes = []int{256, 1024, 4096, 16384}
		filterSide = 4096
		modelKpix = 4096
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := 0
	exp := func(id string, fn func() *experiments.Table) {
		if all || want[id] {
			fn().Fprint(os.Stdout)
			ran++
		}
	}

	exp("fig2", func() *experiments.Table { return experiments.Fig2(sizes) })
	exp("fig3", func() *experiments.Table { return experiments.Fig3(sizes) })
	exp("fig4", experiments.Fig4)
	exp("fig5", experiments.Fig5)
	exp("fig6", func() *experiments.Table { return experiments.Fig6(sizes) })
	exp("fig7", func() *experiments.Table { return experiments.Fig7(filterSide) })
	exp("fig8", func() *experiments.Table { return experiments.Fig8(filterSide) })
	exp("fig9", func() *experiments.Table { return experiments.Fig9(sizes) })
	exp("fig10", experiments.Fig10)
	exp("fig11", experiments.Fig11)
	// The SGI figures always use the paper's 16384-Kpixel workload; the
	// model needs no host-side encoding, so this is cheap at any size.
	exp("fig12", func() *experiments.Table { return experiments.Fig12(16384) })
	exp("fig13", func() *experiments.Table { return experiments.Fig13(16384) })
	exp("quant", func() *experiments.Table { return experiments.QuantSpeedup(modelKpix) })
	exp("amdahl", func() *experiments.Table { return experiments.Amdahl(modelKpix) })
	exp("hostscaling", func() *experiments.Table { return experiments.HostScaling(hostSide) })

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s\n", *run)
		os.Exit(2)
	}
}
