package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 86}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12) / (0.8 + 8.0/12)
	if got := c.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

// The degenerate denominators are *undefined*, not zero: a detector that
// predicted nothing has no precision, and a fault-free crossbar admits no
// recall. Returning 0 here silently dragged averaged sweeps toward zero.
func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if !math.IsNaN(c.Precision()) || !math.IsNaN(c.Recall()) || !math.IsNaN(c.F1()) {
		t.Errorf("empty confusion must yield NaN metrics, got P=%v R=%v F1=%v",
			c.Precision(), c.Recall(), c.F1())
	}

	// One undefined component makes F1 undefined too.
	noPred := Confusion{FN: 3, TN: 7} // nothing predicted: P undefined, R = 0
	if !math.IsNaN(noPred.Precision()) {
		t.Errorf("Precision with TP+FP=0 = %v, want NaN", noPred.Precision())
	}
	if got := noPred.Recall(); got != 0 {
		t.Errorf("Recall = %v, want 0", got)
	}
	if !math.IsNaN(noPred.F1()) {
		t.Errorf("F1 with undefined precision = %v, want NaN", noPred.F1())
	}

	noFaults := Confusion{FP: 2, TN: 8} // fault-free truth: R undefined, P = 0
	if got := noFaults.Precision(); got != 0 {
		t.Errorf("Precision = %v, want 0", got)
	}
	if !math.IsNaN(noFaults.Recall()) {
		t.Errorf("Recall with TP+FN=0 = %v, want NaN", noFaults.Recall())
	}

	// Both components defined but zero: F1 is 0, not NaN.
	bothZero := Confusion{FP: 1, FN: 1}
	if got := bothZero.F1(); got != 0 {
		t.Errorf("F1 with P=R=0 = %v, want 0", got)
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, FN: 3, TN: 4}
	a.Add(Confusion{TP: 10, FP: 20, FN: 30, TN: 40})
	if a.TP != 11 || a.FP != 22 || a.FN != 33 || a.TN != 44 {
		t.Errorf("Add = %+v", a)
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1, FP: 1, FN: 0, TN: 0}.String()
	if !strings.Contains(s, "TP=1") || !strings.Contains(s, "P=0.500") {
		t.Errorf("String = %q", s)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := &Series{Name: "acc"}
	if s.MaxY() != 0 || s.FinalY() != 0 {
		t.Error("empty series must report zeros")
	}
	s.Append(1, 0.5)
	s.Append(2, 0.9)
	s.Append(3, 0.7)
	if s.MaxY() != 0.9 {
		t.Errorf("MaxY = %v", s.MaxY())
	}
	if s.FinalY() != 0.7 {
		t.Errorf("FinalY = %v", s.FinalY())
	}
}

func TestTableRender(t *testing.T) {
	a := &Series{Name: "a"}
	a.Append(1, 0.1)
	a.Append(2, 0.2)
	b := &Series{Name: "b"}
	b.Append(1, 0.3) // no point at x=2
	tab := &Table{Title: "demo", XLabel: "x", Series: []*Series{a, b}, Notes: []string{"hello"}}
	out := tab.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "0.1000") || !strings.Contains(out, "0.3000") {
		t.Errorf("missing values in:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing-point placeholder not rendered")
	}
	if !strings.Contains(out, "# hello") {
		t.Error("notes not rendered")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + 2 x-rows + 1 note
	if len(lines) != 5 {
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestTableDecimalControl(t *testing.T) {
	s := &Series{Name: "v"}
	s.Append(1, 0.123456)
	tab := &Table{Title: "d", XLabel: "x", Series: []*Series{s}, Decimal: 2}
	if !strings.Contains(tab.Render(), "0.12") {
		t.Error("Decimal not honoured")
	}
}
