package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// minReports is the fewest reports a side needs before a bounded metric
// gets a verdict: run-to-run spread is what a verdict is judged against,
// and on a shared box it shows only between launches, not between the
// passes of one.
const minReports = 10

// side is one side (parent or change) of a comparison: per workload and
// metric one value per report, the report's median over its passes, in
// the order the reports were given.
type side struct {
	medians map[string]map[string][]float64
	seeds   map[int64]bool
}

func loadSide(paths string) (side, error) {
	s := side{medians: map[string]map[string][]float64{}, seeds: map[int64]bool{}}
	for _, path := range strings.Split(paths, ",") {
		rep, err := loadReport(path)
		if err != nil {
			return s, err
		}
		s.seeds[rep.Env.Seed] = true
		for _, w := range rep.Workloads {
			if s.medians[w.Name] == nil {
				s.medians[w.Name] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd {
				s.medians[w.Name][name] = append(s.medians[w.Name][name], m.Median)
			}
		}
	}
	return s, nil
}

// verdict applies the guide's rule to one workload x metric pairing,
// given each side's per-report medians; the i-th old report is paired
// with the i-th of the change. worse is how far the change's median is worse
// than the parent's, as a share of the parent's median (negative when it
// is better).
func verdict(better string, bound float64, old, cur []float64) (worse float64, wins, pairs int, v string) {
	sign := 1.0 // positive differences are worse
	if better == "higher" {
		sign = -1
	}
	so, sn := summarise(old), summarise(cur)
	if so.Median != 0 {
		worse = sign * (sn.Median - so.Median) / math.Abs(so.Median)
	} else if sn.Median != 0 {
		worse = sign * math.Copysign(math.Inf(1), sn.Median)
	}
	pairs = min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if sign*(cur[i]-old[i]) < 0 {
			wins++
		}
	}
	if bound == 0 {
		// An absolute bound (failed operations): any worsening counts,
		// whatever the number of reports.
		if worse > 0 {
			return worse, wins, pairs, "REGRESSED"
		}
		return worse, wins, pairs, "within bound"
	}
	if so.N < minReports || sn.N < minReports {
		return worse, wins, pairs, fmt.Sprintf("unresolved (fewer than %d reports a side)", minReports)
	}
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case max(so.spread(), sn.spread()) > bound && !allBetter:
		// The launches of one side differ by more than the bound: the
		// comparison cannot tell a regression from noise.
		return worse, wins, pairs, "unresolved (spread exceeds bound)"
	case worse > bound:
		return worse, wins, pairs, "REGRESSED"
	case wins*10 >= pairs*9 && sign*(so.Median-sn.Median) > so.Q3-so.Q1:
		// A gain: the change wins nine tenths of the pairs and the medians
		// differ by more than the parent's own interquartile spread.
		return worse, wins, pairs, "improved"
	}
	return worse, wins, pairs, "within bound"
}

// compareReports prints, per workload and end-to-end metric, both sides'
// medians with quartiles over their reports, the change against the
// metric's bound, and a verdict. It reports whether any pairing regressed.
func compareReports(w io.Writer, oldPaths, newPaths string) (regressed bool, err error) {
	old, err := loadSide(oldPaths)
	if err != nil {
		return false, err
	}
	cur, err := loadSide(newPaths)
	if err != nil {
		return false, err
	}
	// With one seed on both sides the inputs are identical, so the
	// metrics that only move with the inputs get their same-seed bound.
	sameSeed := len(old.seeds) == 1 && len(cur.seeds) == 1
	for s := range old.seeds {
		sameSeed = sameSeed && cur.seeds[s]
	}
	fmt.Fprintf(w, "values are per-report medians; same seed on both sides: %v\n", sameSeed)
	fmt.Fprintf(w, "%-11s %-21s %-34s %-34s %8s %6s %6s  %s\n", "workload", "metric",
		"old median [q1, q3] n", "new median [q1, q3] n", "worse", "bound", "wins", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := old.medians[wl.Name][d.Name], cur.medians[wl.Name][d.Name]
			if len(o) == 0 || len(n) == 0 || !d.appliesTo(wl.Name) {
				continue
			}
			bound := d.Bound
			if sameSeed && d.SeedBound > 0 {
				bound = d.SeedBound
			}
			worse, wins, pairs, v := verdict(d.Better, bound, o, n)
			regressed = regressed || v == "REGRESSED"
			cell := func(v []float64) string {
				s := summarise(v)
				return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(w, "%-11s %-21s %-34s %-34s %+7.1f%% %5.0f%% %3d/%-2d  %s\n", wl.Name, d.Name,
				cell(o), cell(n), worse*100, bound*100, wins, pairs, v)
		}
	}
	return regressed, nil
}
