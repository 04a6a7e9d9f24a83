package experiments

import (
	"io"
	"strings"
	"testing"

	"flowsched/internal/popularity"
)

// Small configurations keep the test suite fast; cmd/experiments uses the
// paper-sized defaults.

func smallFig10() Fig10Config {
	return Fig10Config{M: 8, SMin: 0, SMax: 2, SStep: 0.5, Ks: []int{1, 2, 3, 4, 8}, Perms: 9, Seed: 1}
}

func smallFig11() Fig11Config {
	return Fig11Config{M: 8, K: 3, N: 1500, Reps: 3, SBias: 1,
		Loads: []float64{0.3, 0.6, 0.9}, Seed: 1}
}

func TestTable1Verifies(t *testing.T) {
	rows, err := Table1(io.Discard, Table1Config{Ms: []int{1, 2, 3}, N: 8, Trials: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WorstMeasured > r.Bound+1e-9 {
			t.Errorf("m=%d: measured %v exceeds bound %v", r.M, r.WorstMeasured, r.Bound)
		}
		if r.WorstMeasured <= 0 {
			t.Errorf("m=%d: no ratio measured", r.M)
		}
	}
}

func TestTable2AllRowsHold(t *testing.T) {
	cfg := Table2Config{MPrime: 8, M: 8, K: 3, Seed: 3, Trials: 20}
	rows, err := Table2(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("row %q / %q: theory %v vs measured %v does not hold",
				r.Structure, r.Algorithm, r.Theory, r.Measured)
		}
	}
}

func TestFigure1(t *testing.T) {
	var b strings.Builder
	if err := Figure1(&b, 12, 4); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"disjoint blocks", "inclusive chain", "nested (laminar)", "general subsets"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in Figure 1 output", want)
		}
	}
}

func TestFigure3(t *testing.T) {
	var b strings.Builder
	if err := Figure3(&b, 6, 3, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "M1") || !strings.Contains(b.String(), "Fmax") {
		t.Errorf("Figure 3 output incomplete:\n%s", b.String())
	}
}

func TestFigure4(t *testing.T) {
	var b strings.Builder
	if err := Figure4(&b, 6, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reaches w_τ") {
		t.Errorf("Figure 4 should report convergence:\n%s", b.String())
	}
}

func TestFigure8(t *testing.T) {
	var b strings.Builder
	if err := Figure8(&b, 6, 1, 5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Uniform") || !strings.Contains(out, "Worst-case") || !strings.Contains(out, "Shuffled") {
		t.Errorf("Figure 8 output incomplete:\n%s", out)
	}
}

func TestFigure9(t *testing.T) {
	var b strings.Builder
	if err := Figure9(&b, 6, 3); err != nil {
		t.Fatal(err)
	}
	// The paper's example: primary M3 → disjoint {M1,M2,M3}, overlapping
	// {M3,M4,M5}.
	out := b.String()
	if !strings.Contains(out, "{M1,M2,M3}") || !strings.Contains(out, "{M3,M4,M5}") {
		t.Errorf("Figure 9 example sets missing:\n%s", out)
	}
}

func TestFig10SweepShape(t *testing.T) {
	data, err := SweepFig10(smallFig10())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ss) != 5 {
		t.Fatalf("s grid = %v", data.Ss)
	}
	for i := range data.Ss {
		for j := range data.Ks {
			ov, dj := data.Overlapping[i][j], data.Disjoint[i][j]
			// Loads are percentages in (0, 100].
			if ov <= 0 || ov > 100+1e-9 || dj <= 0 || dj > 100+1e-9 {
				t.Fatalf("cell (%d,%d) out of range: ov=%v dj=%v", i, j, ov, dj)
			}
			// Paper shape: overlapping ≥ disjoint everywhere.
			if ov < dj-1e-9 {
				t.Errorf("s=%v k=%d: overlapping %v below disjoint %v",
					data.Ss[i], data.Ks[j], ov, dj)
			}
		}
	}
	// s=0 row: both strategies reach 100%; k=m column: both reach 100%.
	for j := range data.Ks {
		if data.Overlapping[0][j] < 100-1e-6 || data.Disjoint[0][j] < 100-1e-6 {
			t.Errorf("s=0, k=%d: expected 100%%, got %v / %v",
				data.Ks[j], data.Overlapping[0][j], data.Disjoint[0][j])
		}
	}
	last := len(data.Ks) - 1
	if data.Ks[last] == 8 {
		for i := range data.Ss {
			if data.Overlapping[i][last] < 100-1e-6 || data.Disjoint[i][last] < 100-1e-6 {
				t.Errorf("k=m, s=%v: expected 100%%", data.Ss[i])
			}
		}
	}
	// The gain is real for biased cells.
	best, _, _ := data.MaxRatio()
	if best < 1.05 {
		t.Errorf("expected a visible overlapping gain, best ratio %v", best)
	}
}

func TestFigure10aAnd10bRender(t *testing.T) {
	var b strings.Builder
	if _, err := Figure10a(&b, smallFig10()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Overlapping") || !strings.Contains(b.String(), "Disjoint") {
		t.Errorf("Figure 10a output incomplete")
	}
	b.Reset()
	if _, err := Figure10b(&b, smallFig10()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "largest gain") {
		t.Errorf("Figure 10b output incomplete")
	}
}

func TestFig11SweepShape(t *testing.T) {
	cfg := smallFig11()
	data, err := SweepFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 cases × 2 strategies × 2 heuristics × 3 loads = 36 points.
	if len(data.Points) != 36 {
		t.Fatalf("points = %d, want 36", len(data.Points))
	}
	for _, p := range data.Points {
		if p.Fmax < 1 {
			t.Errorf("%v %s %s @%v%%: Fmax %v below 1 (unit tasks)", p.Case, p.Heuristic, p.Strategy, p.LoadPct, p.Fmax)
		}
	}
	// Shape check at moderate load in the Uniform case: overlapping ≤
	// disjoint for EFT-Min (the paper's headline at 90%: 5 vs 10).
	ovHigh := lookupPoint(data, popularity.Uniform, "EFT-Min", "overlapping", 90)
	djHigh := lookupPoint(data, popularity.Uniform, "EFT-Min", "disjoint", 90)
	if ovHigh <= 0 || djHigh <= 0 {
		t.Fatalf("missing high-load points: %v %v", ovHigh, djHigh)
	}
	if ovHigh > djHigh {
		t.Errorf("Uniform 90%%: overlapping Fmax %v should not exceed disjoint %v", ovHigh, djHigh)
	}
	// Fmax grows with load for a fixed combination.
	lo := lookupPoint(data, popularity.Uniform, "EFT-Min", "overlapping", 30)
	if lo > ovHigh {
		t.Errorf("Fmax should not decrease with load: 30%%=%v 90%%=%v", lo, ovHigh)
	}
	// The LP verticals exist and are sane.
	for key, v := range data.MaxLoad {
		if v <= 0 || v > 100+1e-9 {
			t.Errorf("max load %q = %v out of range", key, v)
		}
	}
	// Uniform case tolerates 100%.
	if v := data.MaxLoad["Uniform/overlapping"]; v < 100-1e-6 {
		t.Errorf("Uniform overlapping max load = %v, want 100", v)
	}
}

func TestFigure11Renders(t *testing.T) {
	var b strings.Builder
	if _, err := Figure11(&b, smallFig11()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Uniform case", "Shuffled case", "Worst-case case", "EFT-Min/overlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 11 output missing %q", want)
		}
	}
}

func TestExtensionStrategies(t *testing.T) {
	cfg := ExtensionConfig{M: 8, K: 3, N: 1000, Reps: 2, SBias: 1, Load: 0.5, Seed: 2}
	var b strings.Builder
	rows, err := ExtensionStrategies(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ExtensionRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
		if r.MaxLoadPct <= 0 || r.FmaxEFT < 1 || r.FmaxJSQ < 1 {
			t.Errorf("row %+v has implausible values", r)
		}
	}
	// Overlapping should dominate disjoint on the max-load axis.
	if byName["overlapping"].MaxLoadPct < byName["disjoint"].MaxLoadPct-1e-9 {
		t.Errorf("overlapping max load %v below disjoint %v",
			byName["overlapping"].MaxLoadPct, byName["disjoint"].MaxLoadPct)
	}
}

// The max-load solver has no cluster-size ceiling: Figure 10, Figure 11's
// LP verticals and the extension ablation run at m = 30, past the m ≤ 25
// of the 2^m Hall enumeration they once used.

func TestFig10SweepM30(t *testing.T) {
	cfg := Fig10Config{M: 30, SMin: 0, SMax: 1, SStep: 1, Ks: []int{1, 3, 30}, Perms: 3, Seed: 1}
	data, err := SweepFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data.Ss {
		for j, k := range data.Ks {
			ov, dj := data.Overlapping[i][j], data.Disjoint[i][j]
			if ov <= 0 || ov > 100+1e-9 || ov < dj-1e-9 {
				t.Errorf("s=%v k=%d: overlapping %v, disjoint %v", s, k, ov, dj)
			}
			if (s == 0 || k == 30) && (ov < 100-1e-6 || dj < 100-1e-6) {
				t.Errorf("s=%v k=%d: want 100%%, got %v / %v", s, k, ov, dj)
			}
		}
	}
}

func TestFig11VerticalsM30(t *testing.T) {
	cfg := Fig11Config{M: 30, K: 3, SBias: 1, Seed: 1}
	verticals := map[string]float64{}
	for ci, c := range []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst} {
		for si, strat := range fig11Strategies(cfg.K) {
			key := c.String() + "/" + stratLabel(strat)
			v := theoreticalMaxLoadPct(c, cfg, strat, subRng(cfg.Seed, 1, int64(ci), int64(si)))
			if v <= 0 || v > 100+1e-9 {
				t.Errorf("%s: max load %v%% out of range", key, v)
			}
			verticals[key] = v
		}
	}
	if v := verticals["Uniform/overlapping"]; v < 100-1e-6 {
		t.Errorf("Uniform overlapping max load = %v, want 100", v)
	}
	if ov, dj := verticals["Worst-case/overlapping"], verticals["Worst-case/disjoint"]; ov < dj-1e-9 {
		t.Errorf("Worst-case: overlapping %v below disjoint %v", ov, dj)
	}
}

func TestExtensionStrategiesM30(t *testing.T) {
	cfg := ExtensionConfig{M: 30, K: 3, N: 600, Reps: 1, SBias: 1, Load: 0.5, Seed: 2}
	rows, err := ExtensionStrategies(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxLoadPct <= 0 || r.MaxLoadPct > 100+1e-9 {
			t.Errorf("%s: max load %v%% out of range", r.Strategy, r.MaxLoadPct)
		}
	}
}

func TestFigure2(t *testing.T) {
	var b strings.Builder
	if err := Figure2(&b, 8); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "phase k") || !strings.Contains(out, "ratio") {
		t.Errorf("Figure 2 output incomplete:\n%s", out)
	}
}

func TestFigure5and6(t *testing.T) {
	var b strings.Builder
	if err := Figure5and6(&b, 6, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0 violations") {
		t.Errorf("Lemma 2 must hold with 0 violations:\n%s", out)
	}
	if !strings.Contains(out, "plateau") {
		t.Errorf("Figure 5-6 output incomplete")
	}
}

func TestFigure7(t *testing.T) {
	var b strings.Builder
	if err := Figure7(&b, 6, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "stagger") || !strings.Contains(out, "m−k+1 = 4") {
		t.Errorf("Figure 7 output incomplete:\n%s", out)
	}
}

func TestRobustness(t *testing.T) {
	cfg := RobustnessConfig{M: 8, K: 3, N: 2500, Reps: 2, Load: 0.75, SBias: 1,
		Noises: []float64{0, 0.5}, Seed: 4}
	var b strings.Builder
	rows, err := Robustness(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Fmax < 1 || r.MeanFlow < 0.5 {
			t.Errorf("implausible row %+v", r)
		}
	}
	if !strings.Contains(b.String(), "EFT-noisy") || !strings.Contains(b.String(), "Po2") {
		t.Errorf("robustness output incomplete")
	}
}

func TestConvergence(t *testing.T) {
	var b strings.Builder
	rows, err := Convergence(&b, []int{6, 8}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.FmaxReached {
			t.Errorf("m=%d k=%d: Fmax bound not reached right after convergence", r.M, r.K)
		}
		if r.Rounds > r.PaperBound {
			t.Errorf("m=%d k=%d: convergence %d exceeds the paper's m³ = %d", r.M, r.K, r.Rounds, r.PaperBound)
		}
		// Empirically convergence is polynomial and well under m³.
		if r.Rounds > r.M*r.M {
			t.Errorf("m=%d k=%d: convergence %d unexpectedly above m²", r.M, r.K, r.Rounds)
		}
	}
}

func TestCSVExports(t *testing.T) {
	d10, err := SweepFig10(smallFig10())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d10.WriteCSV(&b)
	if !strings.HasPrefix(b.String(), "strategy,s,k,max_load_pct\n") {
		t.Errorf("fig10 CSV header wrong:\n%s", b.String()[:60])
	}
	lines := strings.Count(b.String(), "\n")
	want := 1 + 2*len(d10.Ss)*len(d10.Ks)
	if lines != want {
		t.Errorf("fig10 CSV has %d lines, want %d", lines, want)
	}
	b.Reset()
	d10.WriteRatioCSV(&b)
	if !strings.HasPrefix(b.String(), "s,k,ratio\n") {
		t.Errorf("fig10b CSV header wrong")
	}

	d11, err := SweepFig11(smallFig11())
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	d11.WriteCSV(&b)
	out := b.String()
	if !strings.HasPrefix(out, "case,heuristic,strategy,load_pct,fmax\n") {
		t.Errorf("fig11 CSV header wrong")
	}
	if !strings.Contains(out, "case_strategy,theoretical_max_load_pct") {
		t.Errorf("fig11 CSV missing verticals block")
	}
	// Deterministic output (sorted map keys).
	var b2 strings.Builder
	d11.WriteCSV(&b2)
	if b2.String() != out {
		t.Errorf("fig11 CSV not deterministic")
	}
}

func TestWriteFanout(t *testing.T) {
	cfg := WritesConfig{M: 8, K: 3, N: 2000, Reps: 2, Rate: 0.35 * 8, SBias: 1,
		Fractions: []float64{0, 0.5}, Seed: 5}
	var b strings.Builder
	rows, err := WriteFanout(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Effective load grows with the write fraction.
	if rows[1].EffLoadOv <= rows[0].EffLoadOv {
		t.Errorf("effective load should grow with writes: %v vs %v",
			rows[0].EffLoadOv, rows[1].EffLoadOv)
	}
	// And so should tail latency.
	if rows[1].FmaxOv < rows[0].FmaxOv {
		t.Errorf("Fmax should not improve with more writes: %v vs %v",
			rows[0].FmaxOv, rows[1].FmaxOv)
	}
	if !strings.Contains(b.String(), "Write fan-out") {
		t.Errorf("output incomplete")
	}
}

func TestPopularityDrift(t *testing.T) {
	cfg := DriftConfig{M: 8, K: 3, N: 2000, Reps: 2, Load: 0.5, SBias: 1,
		Segments: []int{1, 4}, Seed: 6}
	var b strings.Builder
	rows, err := PopularityDrift(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FmaxOv < 1 || r.FmaxDj < 1 {
			t.Errorf("implausible row %+v", r)
		}
		// Overlapping should stay at least as good as disjoint under drift.
		if r.FmaxOv > r.FmaxDj*1.5 {
			t.Errorf("epochs=%d: overlapping %v much worse than disjoint %v",
				r.Segments, r.FmaxOv, r.FmaxDj)
		}
	}
	if !strings.Contains(b.String(), "Popularity drift") {
		t.Errorf("output incomplete")
	}
}

// TestAutoscaleSweepHeadline pins the elastic-provisioning story on a
// shortened trace: the autoscaler holds the admitted Fmax within the SLO at
// fewer machine-hours than static-peak, while static-for-mean blows through
// the SLO during the burst. Every cell is auditor-checked inside the sweep
// (membership invariants included), so a pass here also certifies the
// elastic schedules.
func TestAutoscaleSweepHeadline(t *testing.T) {
	cfg := DefaultAutoscale()
	cfg.BaseTime, cfg.BurstTime = 60, 30
	var b strings.Builder
	rows, err := AutoscaleSweep(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCell := map[string]AutoscaleRow{}
	for _, r := range rows {
		byCell[r.Cell] = r
	}
	peak, mean, auto := byCell["static-peak"], byCell["static-mean"], byCell["autoscaled"]
	if !peak.SLOOk {
		t.Errorf("static-peak misses the SLO: Fmax %v", peak.Fmax)
	}
	if mean.SLOOk {
		t.Errorf("static-mean holds the SLO (%v ≤ %v): the burst is too gentle to tell the cells apart",
			mean.Fmax, cfg.SLO)
	}
	if !auto.SLOOk {
		t.Errorf("autoscaler misses the SLO: Fmax %v > %v", auto.Fmax, cfg.SLO)
	}
	if auto.MachineHours >= peak.MachineHours {
		t.Errorf("autoscaler spends %v machine-hours, static-peak only %v",
			auto.MachineHours, peak.MachineHours)
	}
	if auto.ScaleUps == 0 || auto.ScaleDowns == 0 {
		t.Errorf("autoscaler never churned: %d up, %d down", auto.ScaleUps, auto.ScaleDowns)
	}
	if !strings.Contains(b.String(), "Elastic provisioning") {
		t.Errorf("output incomplete")
	}
}
