package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"samplewh/internal/estimate"
	"samplewh/internal/server"
)

// The exact reference. Everything here is computed from the generated
// values alone, without the program's estimate or sketch code, and each
// answer is checked with a tolerance derived from the method's own
// guarantee, wide enough that a correct program fails a check with
// probability at most about 1e-6:
//
//   - means, sums and counts from a simple random sample of size n are
//     within zCheck standard errors of the truth (CLT; the standard error is
//     computed from the population, not taken from the answer, and the
//     finite-population correction is left out, which only widens it);
//   - the population rank of a sample quantile is within the DKW band
//     sqrt(ln(2/delta)/(2n)) of the requested level (Dvoretzky–Kiefer–
//     Wolfowitz with Massart's constant; sampling without replacement is at
//     least as concentrated).
const (
	zCheck   = 6.0
	dkwDelta = 1e-6
)

// part is the benchmark's exact record of one partition: its values, sorted,
// and the sample size the server reported at ingest.
type part struct {
	id         string
	sorted     []int64
	sum, sumsq float64
	sampleSize int64
}

// newPart sorts vals in place and keeps them.
func newPart(id string, vals []int64) *part {
	slices.Sort(vals)
	p := &part{id: id, sorted: vals}
	for _, v := range vals {
		f := float64(v)
		p.sum += f
		p.sumsq += f * f
	}
	return p
}

func (p *part) n() int64 { return int64(len(p.sorted)) }

// countLE is the number of values ≤ v.
func (p *part) countLE(v int64) int64 {
	return int64(sort.Search(len(p.sorted), func(i int) bool { return p.sorted[i] > v }))
}

// countLT is the number of values < v.
func (p *part) countLT(v int64) int64 {
	return int64(sort.Search(len(p.sorted), func(i int) bool { return p.sorted[i] >= v }))
}

// countIn is the number of values in [lo, hi].
func (p *part) countIn(lo, hi int64) int64 {
	if lo > hi {
		return 0
	}
	return p.countLE(hi) - p.countLT(lo)
}

// overlaps reports whether any value lies in [lo, hi].
func (p *part) overlaps(lo, hi int64) bool { return p.countIn(lo, hi) > 0 }

// population is the union of a set of partitions.
type population []*part

func (ps population) n() int64 {
	var n int64
	for _, p := range ps {
		n += p.n()
	}
	return n
}

func (ps population) sum() float64 {
	var s float64
	for _, p := range ps {
		s += p.sum
	}
	return s
}

// sd is the population standard deviation.
func (ps population) sd() float64 {
	var s, ss float64
	for _, p := range ps {
		s += p.sum
		ss += p.sumsq
	}
	n := float64(ps.n())
	mean := s / n
	v := ss/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

func (ps population) countLE(v int64) int64 {
	var c int64
	for _, p := range ps {
		c += p.countLE(v)
	}
	return c
}

func (ps population) countLT(v int64) int64 {
	var c int64
	for _, p := range ps {
		c += p.countLT(v)
	}
	return c
}

func (ps population) countIn(lo, hi int64) int64 {
	var c int64
	for _, p := range ps {
		c += p.countIn(lo, hi)
	}
	return c
}

// ids lists the partition ids in order.
func (ps population) ids() []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.id
	}
	return out
}

// mergedSize is the size a uniform merge of the partitions' samples must
// have: HRMerge of reservoir samples keeps min(|S1|, |S2|), so the merge of
// samples that all hold nf values holds nf.
func (ps population) mergedSize(nf int64) int64 {
	size := nf
	for _, p := range ps {
		size = min(size, p.sampleSize)
	}
	return size
}

// modeStat is the most frequent value, its count, and the count of the
// runner-up value.
type modeStat struct{ v, count, second int64 }

// mode finds the population's modeStat.
func (ps population) mode() modeStat {
	var v, count, second int64
	counts := make(map[int64]int64)
	for _, p := range ps {
		for i := 0; i < len(p.sorted); {
			j := i
			for j < len(p.sorted) && p.sorted[j] == p.sorted[i] {
				j++
			}
			counts[p.sorted[i]] += int64(j - i)
			i = j
		}
	}
	for val, c := range counts {
		switch {
		case c > count || (c == count && val < v):
			second = max(second, count)
			v, count = val, c
		case c > second:
			second = c
		}
	}
	return modeStat{v, count, second}
}

// valueCount is the number of occurrences of v.
func (ps population) valueCount(v int64) int64 { return ps.countIn(v, v) }

// checkSampleMeta checks the properties every merged answer must have: the
// merged parent size equals the values ingested, and the sample holds
// exactly the merged size the method prescribes (never more than nf).
func checkSampleMeta(m server.SampleMeta, ps population, nf int64) error {
	if m.ParentSize != ps.n() {
		return fmt.Errorf("merged parent size %d, want %d values ingested", m.ParentSize, ps.n())
	}
	if want := ps.mergedSize(nf); m.Size != want {
		return fmt.Errorf("merged sample size %d, want %d (nF %d)", m.Size, want, nf)
	}
	return nil
}

// checkCoverage checks that an answer covers exactly the requested
// partitions and is not degraded. Pruned (bounded-plan) and sketch-pruned
// partitions count as covered; the caller checks their lists.
func checkCoverage(c server.Coverage, degraded bool, requested []string) error {
	if degraded || c.Partial || len(c.Skipped) > 0 {
		return fmt.Errorf("answer degraded: skipped %v", c.Skipped)
	}
	if !slices.Equal(c.Requested, requested) {
		return fmt.Errorf("coverage requested %v, want %v", c.Requested, requested)
	}
	got := append(append(append([]string(nil), c.Merged...), c.Pruned...), c.SketchPruned...)
	slices.Sort(got)
	want := slices.Clone(requested)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("merged %v + pruned %v + sketch-pruned %v do not partition the request %v",
			c.Merged, c.Pruned, c.SketchPruned, requested)
	}
	return nil
}

// checkSketchPruned checks that the sketch-pruned partitions are exactly the
// requested ones the reference knows hold no value in [lo, hi].
func checkSketchPruned(got []string, ps population, lo, hi int64) error {
	var want []string
	for _, p := range ps {
		if !p.overlaps(lo, hi) {
			want = append(want, p.id)
		}
	}
	g := slices.Clone(got)
	slices.Sort(g)
	slices.Sort(want)
	if !slices.Equal(g, want) {
		return fmt.Errorf("sketch-pruned %v, want exactly the partitions missing [%d,%d]: %v", g, lo, hi, want)
	}
	return nil
}

// within checks |got − want| ≤ tol, with a relative slack for rounding.
func within(what string, got, want, tol float64) error {
	slack := tol + 1e-9*math.Abs(want) + 1e-9
	if math.IsNaN(got) || math.Abs(got-want) > slack {
		return fmt.Errorf("%s = %.6g, want %.6g ± %.3g", what, got, want, slack)
	}
	return nil
}

// checkAvg checks a mean estimated from a uniform sample of size n.
func checkAvg(e *estimate.Estimate, ps population, n int64) error {
	if e == nil {
		return fmt.Errorf("avg: no estimate")
	}
	mean := ps.sum() / float64(ps.n())
	return within("avg", e.Value, mean, zCheck*ps.sd()/math.Sqrt(float64(n)))
}

// checkSum checks a population sum estimated from a uniform sample.
func checkSum(e *estimate.Estimate, ps population, n int64) error {
	if e == nil {
		return fmt.Errorf("sum: no estimate")
	}
	N := float64(ps.n())
	return within("sum", e.Value, ps.sum(), zCheck*N*ps.sd()/math.Sqrt(float64(n)))
}

// dkw is the DKW band half-width for a sample of size n, plus one rank of
// slack for the sample quantile's rounding.
func dkw(n int64) float64 {
	return math.Sqrt(math.Log(2/dkwDelta)/(2*float64(n))) + 1/float64(n)
}

// checkQuantile checks that the returned value's population rank brackets
// the requested level q within the DKW band.
func checkQuantile(v *int64, q float64, ps population, n int64) error {
	if v == nil {
		return fmt.Errorf("quantile %g: no value", q)
	}
	N := float64(ps.n())
	lt, le := float64(ps.countLT(*v))/N, float64(ps.countLE(*v))/N
	eps := dkw(n)
	if q < lt-eps || q > le+eps {
		return fmt.Errorf("quantile %g = %d has population rank [%.4f, %.4f], outside the DKW band ±%.4f", q, *v, lt, le, eps)
	}
	return nil
}

// checkTopK checks a top-k answer: each entry's population-scaled count is
// its sample count × N/n, each value's sample frequency is within the CLT
// tolerance of its true frequency, entries come in descending order, and the
// first entry is the true mode whenever the mode's lead over the runner-up
// is decisive at the check's tolerance.
func checkTopK(got []estimate.FreqEntry[int64], k int, ps population, n int64, mode modeStat) error {
	if len(got) != k {
		return fmt.Errorf("topk: %d entries, want %d", len(got), k)
	}
	N := float64(ps.n())
	nf := float64(n)
	for i, e := range got {
		if i > 0 && e.InSample > got[i-1].InSample {
			return fmt.Errorf("topk: entries not in descending order at %d", i)
		}
		if err := within(fmt.Sprintf("topk[%d] scaled count", i), e.Estimated, float64(e.InSample)*N/nf, 1e-6*N); err != nil {
			return err
		}
		p := float64(ps.valueCount(e.Value)) / N
		if err := within(fmt.Sprintf("topk value %d sample frequency", e.Value),
			float64(e.InSample)/nf, p, zCheck*math.Sqrt(p*(1-p)/nf)+1/nf); err != nil {
			return err
		}
	}
	p1, p2 := float64(mode.count)/N, float64(mode.second)/N
	if p1-p2 > 2*zCheck*math.Sqrt(p1/nf)+2/nf && got[0].Value != mode.v {
		return fmt.Errorf("topk: first entry %d, want the true mode %d (frequency %.4f vs runner-up %.4f)", got[0].Value, mode.v, p1, p2)
	}
	return nil
}

// checkStratifiedCount checks a count over [lo, hi] estimated stratum by
// stratum: each partition contributes N_i times its sample's in-range share,
// so the error is the sum of independent per-partition errors.
func checkStratifiedCount(e *estimate.Estimate, ps population, lo, hi int64) error {
	if e == nil {
		return fmt.Errorf("count: no estimate")
	}
	var truth, variance float64
	for _, p := range ps {
		c := float64(p.countIn(lo, hi))
		truth += c
		if c == 0 || p.sampleSize == 0 {
			continue
		}
		N := float64(p.n())
		q := c / N
		variance += N * N * q * (1 - q) / float64(p.sampleSize)
	}
	return within(fmt.Sprintf("count[%d,%d]", lo, hi), e.Value, truth, zCheck*math.Sqrt(variance))
}

// checkBounded checks a bounded fraction answer (?maxerr=). The planner
// merged a uniform sample of the covered partitions only. The answer's value
// is the in-range fraction of that sample, so it must be within the CLT
// tolerance of the covered partitions' true fraction; the interval carries
// the unloaded partitions' worst case and must hold the whole population's
// true fraction. (The value is not checked against the whole population: the
// program reports the covered fraction there, which can lie outside its own
// interval.) The achieved half-width must meet the bound unless the plan ran
// out of partitions, the covered population must be what was merged, and the
// sketch-pruned partitions must be exactly those missing the range.
func checkBounded(r *server.EstimateResponse, requested population, lo, hi int64, maxerr float64, nf int64) error {
	if r.Plan == nil {
		return fmt.Errorf("bounded: no plan in the answer")
	}
	pl := r.Plan
	if pl.StopReason != "exhausted" && pl.AchievedHalfWidth > maxerr {
		return fmt.Errorf("bounded: achieved half-width %.4f > maxerr %g (stop %s)", pl.AchievedHalfWidth, maxerr, pl.StopReason)
	}
	if err := checkCoverage(r.Coverage, r.Degraded, requested.ids()); err != nil {
		return fmt.Errorf("bounded: %w", err)
	}
	if err := checkSketchPruned(r.Coverage.SketchPruned, requested, lo, hi); err != nil {
		return fmt.Errorf("bounded: %w", err)
	}
	byID := make(map[string]*part, len(requested))
	for _, p := range requested {
		byID[p.id] = p
	}
	var merged population
	for _, id := range r.Coverage.Merged {
		merged = append(merged, byID[id])
	}
	var zero int64
	for _, id := range r.Coverage.SketchPruned {
		zero += byID[id].n()
	}
	T := requested.n()
	if pl.TotalPopulation != T || pl.CoveredPopulation != merged.n() || pl.ProvenZeroPopulation != zero {
		return fmt.Errorf("bounded: plan populations total %d covered %d proven-zero %d, want %d %d %d",
			pl.TotalPopulation, pl.CoveredPopulation, pl.ProvenZeroPopulation, T, merged.n(), zero)
	}
	if pl.Loaded != len(r.Coverage.Merged) {
		return fmt.Errorf("bounded: plan loaded %d, merged %d", pl.Loaded, len(r.Coverage.Merged))
	}
	if err := checkSampleMeta(r.Sample, merged, nf); err != nil {
		return fmt.Errorf("bounded: %w", err)
	}
	if r.Estimate == nil {
		return fmt.Errorf("bounded: no estimate")
	}
	n := float64(r.Sample.Size)
	p := float64(merged.countIn(lo, hi)) / float64(merged.n())
	slack := zCheck*math.Sqrt(p*(1-p)/n) + 1/n
	if err := within(fmt.Sprintf("bounded fraction[%d,%d] over %d merged partitions", lo, hi, len(merged)),
		r.Estimate.Value, p, slack); err != nil {
		return err
	}
	// The interval is the method's guarantee about the whole requested
	// population: it must hold the true fraction, widened from its nominal
	// level to the check's (the covered part scales by w = covered/total).
	truth := float64(requested.countIn(lo, hi)) / float64(T)
	w := float64(merged.n()) / float64(T)
	if truth < r.Estimate.Lo-w*slack || truth > r.Estimate.Hi+w*slack {
		return fmt.Errorf("bounded fraction[%d,%d]: interval [%.4f, %.4f] misses the true fraction %.4f",
			lo, hi, r.Estimate.Lo, r.Estimate.Hi, truth)
	}
	return nil
}
