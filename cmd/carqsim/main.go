// Command carqsim runs one Cooperative-ARQ scenario and prints a summary,
// optionally exporting the full event trace as JSON Lines for offline
// analysis with carqtrace.
//
// Usage:
//
//	carqsim [-scenario testbed|highway|download|corridor] [-rounds N]
//	        [-seed N] [-cars N] [-speed m/s] [-coop=true] [-batch]
//	        [-trace file.jsonl]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("carqsim: ")

	var (
		scen      = flag.String("scenario", "testbed", "scenario: testbed, highway, download or corridor")
		rounds    = flag.Int("rounds", 10, "experiment rounds (testbed/highway)")
		seed      = flag.Int64("seed", 1, "root random seed")
		cars      = flag.Int("cars", 3, "platoon size")
		speed     = flag.Float64("speed", 0, "speed in m/s (0: scenario default)")
		coop      = flag.Bool("coop", true, "enable Cooperative ARQ")
		batch     = flag.Bool("batch", false, "batch missing sequences into one REQUEST")
		tracePath = flag.String("trace", "", "write the first round's trace as JSONL to this file")
	)
	flag.Parse()

	switch *scen {
	case "testbed":
		runTestbed(*rounds, *seed, *cars, *speed, *coop, *batch, *tracePath)
	case "highway":
		runHighway(*rounds, *seed, *cars, *speed, *coop)
	case "download":
		runDownload(*seed, *cars, *speed, *coop)
	case "corridor":
		runCorridor(*rounds, *seed, *cars, *speed, *coop)
	default:
		log.Fatalf("unknown scenario %q", *scen)
	}
}

func runCorridor(rounds int, seed int64, cars int, speed float64, coop bool) {
	cfg := scenario.DefaultCorridor()
	cfg.Rounds = rounds
	cfg.Seed = seed
	cfg.Cars = cars
	cfg.Coop = coop
	if speed > 0 {
		cfg.SpeedMPS = speed
	}
	res, err := scenario.RunCorridor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corridor: %d Infostations %.0f m apart, %d rounds, coop=%v\n\n",
		cfg.APCount, cfg.APSpacingM, rounds, coop)
	indexed := trace.IndexRounds(res.Rounds)
	for _, car := range res.CarIDs {
		eff := analysis.CoverageEfficiency(indexed, car, res.CarIDs)
		fmt.Printf("car %v: coverage efficiency %.3f\n", car, eff)
	}
}

func runTestbed(rounds int, seed int64, cars int, speed float64, coop, batch bool, tracePath string) {
	cfg := scenario.DefaultTestbed()
	cfg.Rounds = rounds
	cfg.Seed = seed
	cfg.Cars = cars
	cfg.Coop = coop
	cfg.BatchRequests = batch
	if speed > 0 {
		cfg.SpeedMPS = speed
	}
	res, err := scenario.RunTestbed(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("urban testbed: %d rounds, %d cars, %.1f m/s, coop=%v\n\n",
		rounds, cars, cfg.SpeedMPS, coop)
	fmt.Print(report.Table1(res))
	if coop {
		fmt.Println()
		for _, car := range res.CarIDs {
			if fig, err := report.NewCoopFigure(res.Rounds, res.CarIDs, car); err == nil {
				fmt.Printf("car %v: after-coop vs virtual-car oracle gap: max %.3f mean %.3f\n",
					car, fig.MaxGap, fig.MeanGap)
			}
		}
	}
	writeTrace(tracePath, res)
}

func writeTrace(path string, res *scenario.TestbedResult) {
	if path == "" || len(res.Rounds) == 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating trace file: %v", err)
	}
	defer f.Close()
	if err := res.Rounds[0].WriteJSONL(f); err != nil {
		log.Fatalf("writing trace: %v", err)
	}
	log.Printf("wrote round-0 trace to %s (%d tx, %d rx records)",
		path, len(res.Rounds[0].Tx), len(res.Rounds[0].Rx))
}

func runHighway(rounds int, seed int64, cars int, speed float64, coop bool) {
	cfg := scenario.DefaultHighway()
	cfg.Rounds = rounds
	cfg.Seed = seed
	cfg.Cars = cars
	cfg.Coop = coop
	if speed > 0 {
		cfg.SpeedMPS = speed
	}
	res, err := scenario.RunHighway(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("highway drive-thru: %d rounds, %d cars, %.1f m/s (%.0f km/h), coop=%v\n\n",
		rounds, cars, cfg.SpeedMPS, cfg.SpeedMPS*3.6, coop)
	fmt.Print(analysis.FormatTable1(report.RowsFor(res.Rounds, res.CarIDs)))
}

func runDownload(seed int64, cars int, speed float64, coop bool) {
	cfg := scenario.DefaultDownload()
	cfg.Seed = seed
	cfg.Cars = cars
	cfg.Coop = coop
	if speed > 0 {
		cfg.SpeedMPS = speed
	}
	res, err := scenario.RunDownload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file download: %d blocks/car, %d cars, coop=%v (lap %v)\n\n",
		cfg.FileBlocks, cars, coop, res.LapTime.Round(time.Second))
	for _, c := range res.Cars {
		fmt.Printf("car %v: completed=%v visits=%d time=%v blocks=%d\n",
			c.Car, c.Completed, c.Visits, c.CompletionTime.Round(time.Second), c.Blocks)
	}
}
