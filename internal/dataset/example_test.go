package dataset_test

import (
	"fmt"

	"github.com/evfed/evfed/internal/dataset"
)

// ExampleGenerate shows basic synthetic data generation for one of the
// paper's study zones.
func ExampleGenerate() {
	res, err := dataset.Generate(dataset.Config{Profile: dataset.Profile102(), Hours: 48, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := res.Series
	fmt.Printf("%d hourly samples starting %s\n", s.Len(), s.Start.Format("2006-01-02"))
	// Output:
	// 48 hourly samples starting 2022-09-01
}
