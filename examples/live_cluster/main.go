// Live cluster: a genuinely distributed federation over TCP. Three
// charging-station processes are simulated by three in-process TCP
// servers on loopback; the coordinator only ever sees model weights.
// Swap the loopback addresses for real hosts to deploy across machines.
//
//	go run ./examples/live_cluster
package main

import (
	"fmt"
	"log"

	"github.com/evfed/evfed/internal/dataset"
	"github.com/evfed/evfed/internal/fed"
	"github.com/evfed/evfed/internal/nn"
	"github.com/evfed/evfed/internal/scale"
	"github.com/evfed/evfed/internal/series"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		hours       = 800
		seqLen      = 24
		lstmUnits   = 12
		denseHidden = 6
	)
	spec := nn.ForecasterSpec(lstmUnits, denseHidden)
	profiles := []dataset.ZoneProfile{dataset.Profile102(), dataset.Profile105(), dataset.Profile108()}

	// Start one TCP server per station (in production each of these runs
	// on the station's own hardware — the raw series below never leaves
	// this process boundary).
	var handles []fed.ClientHandle
	for i, prof := range profiles {
		gen, err := dataset.Generate(dataset.Config{Profile: prof, Hours: hours, Seed: 23})
		if err != nil {
			return err
		}
		s := gen.Series
		train, _, err := series.SplitValues(s.Values, 0.8)
		if err != nil {
			return err
		}
		var sc scale.MinMaxScaler
		scaledTrain, err := sc.FitTransform(train)
		if err != nil {
			return err
		}
		client, err := fed.NewClient("station-"+prof.Zone, spec, scaledTrain, seqLen, uint64(i+31))
		if err != nil {
			return err
		}
		srv, err := fed.ServeClient(client, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Stop()
		fmt.Printf("station %s serving on %s (%d private training windows)\n",
			prof.Zone, srv.Addr(), mustSamples(client))
		handles = append(handles, fed.NewRemoteClient(client.ID(), srv.Addr()))
	}

	// The coordinator never touches raw data: it ships weight vectors to
	// the stations and averages what comes back.
	cfg := fed.Config{
		Rounds:         2,
		EpochsPerRound: 3,
		BatchSize:      32,
		LearningRate:   0.001,
		Seed:           23,
		Parallel:       true,
	}
	co, err := fed.NewCoordinator(spec, handles, cfg)
	if err != nil {
		return err
	}
	res, err := co.Run()
	if err != nil {
		return err
	}
	for _, rs := range res.Rounds {
		fmt.Printf("round %d: %d participants, weighted local loss %.6f, %.2fs\n",
			rs.Round+1, len(rs.Participants), rs.MeanLoss, rs.WallSeconds)
	}
	fmt.Printf("federation complete: %d-dimensional global model in %.1fs wall clock\n",
		len(res.Global), res.WallSeconds)
	return nil
}

func mustSamples(c *fed.Client) int {
	n, err := c.NumSamples()
	if err != nil {
		return -1
	}
	return n
}
