package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"samplewh/internal/estimate"
	"samplewh/internal/server"
)

// testPop is four partitions of 10,000 values each: partition i holds
// i·10000+1 .. (i+1)·10000, each value once, with samples of 1,000.
func testPop() population {
	var pop population
	for i := 0; i < 4; i++ {
		vals := make([]int64, 10000)
		for j := range vals {
			vals[j] = int64(i*10000 + j + 1)
		}
		p := newPart(fmt.Sprintf("p%d", i), vals)
		p.sampleSize = 1000
		pop = append(pop, p)
	}
	return pop
}

// The checker must pass the exact answer and reject one moved well past the
// tolerance its method guarantees.
func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	pop := testPop()
	const n = 1000
	mean := pop.sum() / float64(pop.n())
	se := pop.sd() / math.Sqrt(n)

	if err := checkAvg(&estimate.Estimate{Value: mean}, pop, n); err != nil {
		t.Errorf("exact avg rejected: %v", err)
	}
	if err := checkAvg(&estimate.Estimate{Value: mean + 7*se}, pop, n); err == nil {
		t.Error("avg 7 standard errors off accepted")
	}
	if err := checkSum(&estimate.Estimate{Value: pop.sum() * 1.2}, pop, n); err == nil {
		t.Error("sum 20% off accepted")
	}

	median := int64(20000)
	if err := checkQuantile(&median, 0.5, pop, n); err != nil {
		t.Errorf("exact median rejected: %v", err)
	}
	far := int64(30000)
	if err := checkQuantile(&far, 0.5, pop, n); err == nil {
		t.Error("the 0.75 quantile accepted as the median")
	}

	lo, hi := int64(15001), int64(25000)
	if err := checkStratifiedCount(&estimate.Estimate{Value: 10000}, pop, lo, hi); err != nil {
		t.Errorf("exact count rejected: %v", err)
	}
	if err := checkStratifiedCount(&estimate.Estimate{Value: 12000}, pop, lo, hi); err == nil {
		t.Error("count 20% off accepted")
	}

	if err := checkSketchPruned([]string{"p0", "p3"}, pop, lo, hi); err != nil {
		t.Errorf("exact pruned set rejected: %v", err)
	}
	if err := checkSketchPruned([]string{"p0"}, pop, lo, hi); err == nil {
		t.Error("pruned set missing a partition accepted")
	}
	if err := checkSketchPruned([]string{"p0", "p1", "p3"}, pop, lo, hi); err == nil {
		t.Error("pruned set with an overlapping partition accepted")
	}
}

func TestCheckCoverageAndMeta(t *testing.T) {
	pop := testPop()
	ids := pop.ids()
	full := server.Coverage{Requested: ids, Merged: ids}
	if err := checkCoverage(full, false, ids); err != nil {
		t.Errorf("full coverage rejected: %v", err)
	}
	if err := checkCoverage(full, true, ids); err == nil {
		t.Error("degraded answer accepted")
	}
	short := server.Coverage{Requested: ids, Merged: ids[:3]}
	if err := checkCoverage(short, false, ids); err == nil {
		t.Error("answer missing a partition accepted")
	}
	meta := server.SampleMeta{Size: 1000, ParentSize: 40000}
	if err := checkSampleMeta(meta, pop, 1000); err != nil {
		t.Errorf("exact sample metadata rejected: %v", err)
	}
	meta.ParentSize = 39999
	if err := checkSampleMeta(meta, pop, 1000); err == nil {
		t.Error("wrong parent size accepted")
	}
	meta = server.SampleMeta{Size: 1001, ParentSize: 40000}
	if err := checkSampleMeta(meta, pop, 1000); err == nil {
		t.Error("sample larger than nF accepted")
	}
}

func TestCheckTopK(t *testing.T) {
	// Value 7 is 30% of the population, values 1..6 10% each, and 8..11
	// 2.5% each.
	var vals []int64
	for v := int64(1); v <= 6; v++ {
		for j := 0; j < 1000; j++ {
			vals = append(vals, v)
		}
	}
	for j := 0; j < 3000; j++ {
		vals = append(vals, 7)
	}
	for v := int64(8); v <= 11; v++ {
		for j := 0; j < 250; j++ {
			vals = append(vals, v)
		}
	}
	p := newPart("p", vals)
	p.sampleSize = 1000
	pop := population{p}
	const n = 1000
	N := float64(pop.n())
	entry := func(v, inSample int64) estimate.FreqEntry[int64] {
		return estimate.FreqEntry[int64]{Value: v, InSample: inSample, Estimated: float64(inSample) * N / n}
	}
	good := []estimate.FreqEntry[int64]{entry(7, 300), entry(1, 100), entry(2, 100)}
	if err := checkTopK(good, 3, pop, n, pop.mode()); err != nil {
		t.Errorf("exact top-k rejected: %v", err)
	}
	wrongMode := []estimate.FreqEntry[int64]{entry(1, 300), entry(7, 100), entry(2, 100)}
	if err := checkTopK(wrongMode, 3, pop, n, pop.mode()); err == nil {
		t.Error("top-k with the wrong frequencies accepted")
	}
	badScale := []estimate.FreqEntry[int64]{entry(7, 300), entry(1, 100), entry(2, 100)}
	badScale[0].Estimated *= 2
	if err := checkTopK(badScale, 3, pop, n, pop.mode()); err == nil {
		t.Error("top-k with a mis-scaled count accepted")
	}
}

func TestCheckBounded(t *testing.T) {
	pop := testPop()
	lo, hi := int64(15001), int64(35000)
	// Merged p1 and p2, pruned p3 by the plan, sketch-pruned p0; 15,000 of
	// the merged 20,000 values lie in the range.
	resp := &server.EstimateResponse{
		Estimate: &estimate.Estimate{Value: 0.75, Lo: 0.35, Hi: 0.65},
		Sample:   server.SampleMeta{Size: 1000, ParentSize: 20000},
		Coverage: server.Coverage{Requested: pop.ids(), Merged: []string{"p1", "p2"},
			Pruned: []string{"p3"}, SketchPruned: []string{"p0"}},
		Plan: &server.PlanInfo{Loaded: 2, StopReason: "maxerr", AchievedHalfWidth: 0.09,
			CoveredPopulation: 20000, TotalPopulation: 40000, ProvenZeroPopulation: 10000},
	}
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err != nil {
		t.Fatalf("exact bounded answer rejected: %v", err)
	}
	resp.Estimate.Value = 0.9
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err == nil {
		t.Error("bounded answer 0.15 off accepted")
	}
	resp.Estimate.Value = 0.75
	resp.Estimate.Hi = 0.45 // the whole range holds half the values
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err == nil {
		t.Error("bounded interval missing the true fraction accepted")
	}
	resp.Estimate.Hi = 0.65
	resp.Plan.AchievedHalfWidth = 0.2
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err == nil {
		t.Error("bounded answer wider than maxerr accepted")
	}
	resp.Plan.StopReason = "exhausted"
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err != nil {
		t.Errorf("exhausted plan held to maxerr: %v", err)
	}
	resp.Plan.CoveredPopulation = 30000
	if err := checkBounded(resp, pop, lo, hi, 0.1, 1000); err == nil {
		t.Error("wrong covered population accepted")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("root", "q", 0, at(0), at(10), nil)
	r.add("a", "q", root, at(1), at(4), nil)
	r.add("b", "q", root, at(3), at(6), nil)
	for _, st := range r.selfTimes() {
		if st.Name == "root" && st.SelfNS != int64(5*time.Millisecond) {
			t.Errorf("root self time %v, want 5ms (10ms minus the union of its children)", time.Duration(st.SelfNS))
		}
	}
}
