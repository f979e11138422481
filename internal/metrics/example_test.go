package metrics_test

import (
	"fmt"

	"github.com/evfed/evfed/internal/metrics"
)

// ExampleEvalDetection shows detection scoring against ground truth.
func ExampleEvalDetection() {
	truth := []bool{true, true, false, false, true, false}
	flags := []bool{true, false, false, false, true, true}
	c, err := metrics.EvalDetection(truth, flags)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	d := metrics.Summarize(c)
	fmt.Printf("precision %.2f recall %.2f\n", d.Precision, d.Recall)
	// Output:
	// precision 0.67 recall 0.67
}

// ExampleEvalRegression shows regression scoring.
func ExampleEvalRegression() {
	truth := []float64{10, 20, 30}
	pred := []float64{11, 19, 31}
	m, err := metrics.EvalRegression(truth, pred)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("MAE %.2f RMSE %.2f\n", m.MAE, m.RMSE)
	// Output:
	// MAE 1.00 RMSE 1.00
}
