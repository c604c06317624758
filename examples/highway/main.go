// Highway drive-thru: the scenario that motivates the paper.
//
// A platoon passes a roadside AP at increasing speeds. The per-pass packet
// budget shrinks with speed while the loss rate stays harsh — and
// Cooperative ARQ recovers a large share of the losses in the dark road
// beyond coverage.
//
//	go run ./examples/highway [-rounds 5]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	rounds := flag.Int("rounds", 5, "passes per speed")
	flag.Parse()

	fmt.Println("speed   window   pre-coop  post-coop  (3-car platoon, means over cars)")
	for _, kmh := range []float64{30, 60, 90, 120} {
		cfg := scenario.DefaultHighway()
		cfg.Rounds = *rounds
		cfg.SpeedMPS = kmh / 3.6
		res, err := scenario.RunHighway(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows := analysis.Table1(trace.IndexRounds(res.Rounds), res.CarIDs)
		var tx, pre, post float64
		for _, r := range rows {
			tx += r.TxByAP.Mean()
			pre += r.LostBeforePct()
			post += r.LostAfterPct()
		}
		n := float64(len(rows))
		fmt.Printf("%3.0f km/h %5.0f pkt %7.1f%% %9.1f%%\n", kmh, tx/n, pre/n, post/n)
	}
}
