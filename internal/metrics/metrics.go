// Package metrics provides the statistical measures the paper evaluates
// with — precision and recall of fault detection (§6.1) — plus small
// series/table helpers shared by the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Confusion is a binary confusion matrix for fault prediction: "positive"
// means predicted faulty.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add accumulates another confusion matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
	c.TN += o.TN
}

// Precision returns TP/(TP+FP), the paper's false-positive metric:
// "loss of precision results in unnecessary hardware overhead".
//
// With no predicted positives (TP+FP = 0) precision is undefined and NaN
// is returned — a detector that predicted nothing is not a perfectly
// precise detector, and it is not a maximally imprecise one either.
// Callers aggregating over runs should skip NaN values (math.IsNaN)
// rather than average them in as zeros.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), the paper's test-escape metric:
// "higher the recall, lower is the test escape".
//
// With no actual positives (TP+FN = 0, a fault-free crossbar) recall is
// undefined and NaN is returned, under the same contract as Precision.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall. It is NaN when
// either component is undefined, and 0 when both are defined but zero
// (the harmonic mean's limit as p+r → 0).
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if math.IsNaN(p) || math.IsNaN(r) {
		return math.NaN()
	}
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String formats the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d P=%.3f R=%.3f", c.TP, c.FP, c.FN, c.TN, c.Precision(), c.Recall())
}

// Series is one named curve of an experiment figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// MaxY returns the maximum Y value (the "peak accuracy" the paper quotes),
// or 0 for an empty series.
func (s *Series) MaxY() float64 {
	var max float64
	for i, v := range s.Y {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// FinalY returns the last Y value, or 0 for an empty series.
func (s *Series) FinalY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// Table renders a set of series sharing an X axis as an aligned text table,
// one row per X value. Series with missing points print blanks.
type Table struct {
	Title   string
	XLabel  string
	Series  []*Series
	Notes   []string
	Decimal int // Y decimal places; 0 defaults to 4
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	dec := t.Decimal
	if dec == 0 {
		dec = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	// Header.
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	// Collect the union of X values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.6g", x)
		for _, s := range t.Series {
			found := false
			for i, sx := range s.X {
				if sx == x {
					fmt.Fprintf(&b, " %16.*f", dec, s.Y[i])
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}
