package attack_test

import (
	"fmt"

	"github.com/evfed/evfed/internal/attack"
	"github.com/evfed/evfed/internal/rng"
)

// ExampleSchedule shows DDoS campaign scheduling over a series.
func ExampleSchedule() {
	episodes, err := attack.Schedule(attack.DefaultSchedule(), 4344, 0, rng.New(7))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	attacked := 0
	for _, e := range episodes {
		attacked += e.Length
	}
	fmt.Printf("%d episodes scheduled\n", len(episodes))
	fmt.Printf("prevalence band ok: %v\n", attacked > 200 && attacked < 1400)
	// Output:
	// 25 episodes scheduled
	// prevalence band ok: true
}

// ExampleInjectDDoS shows attack injection with ground-truth labels.
func ExampleInjectDDoS() {
	clean := make([]float64, 100)
	for i := range clean {
		clean[i] = 10
	}
	episodes := []attack.Episode{{Start: 40, Length: 5, Severity: 0.5}}
	res, err := attack.InjectDDoS(clean, episodes, attack.DefaultTraffic(), rng.New(3))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	n := 0
	spiked := true
	for i, l := range res.Labels {
		if l {
			n++
			if res.Values[i] <= clean[i] {
				spiked = false
			}
		}
	}
	fmt.Printf("%d labeled hours, all spiked: %v\n", n, spiked)
	// Output:
	// 5 labeled hours, all spiked: true
}
