package experiments

import (
	"regexp"
	"strings"
	"testing"

	"anton/internal/system"
)

func TestTable1(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BPTI", "1031", "us/day"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Range-limited", "FFT", "slowdown", "speedup", "parameter sweep", "x86 ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	// The sweep covers cutoff 9/11/13/15 Å × mesh 32/64: eight rows.
	sweep := regexp.MustCompile(`(?m)^(9|11|13|15)\.0 +(32|64) `)
	if n := len(sweep.FindAllString(out, -1)); n != 8 {
		t.Errorf("Table2 sweep has %d rows, want 8:\n%s", n, out)
	}
}

func TestTable3(t *testing.T) {
	out, err := Table3(50000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "match efficiency") {
		t.Errorf("Table3 malformed:\n%s", out)
	}
}

func TestTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs gpW dynamics")
	}
	out, rows, err := Table4(true, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	// gpW row carries measurements.
	if rows[0].Name != "gpW" || rows[0].NumericForceErr == 0 {
		t.Errorf("gpW measurements missing: %+v", rows[0])
	}
	// The numerical force error must be far below the paper's 1e-3
	// acceptability threshold.
	if rows[0].NumericForceErr > 1e-3 {
		t.Errorf("numerical force error %g too large", rows[0].NumericForceErr)
	}
	// Total error should be >= numerical error (it includes parameter
	// truncation too).
	if rows[0].TotalForceErr < rows[0].NumericForceErr {
		t.Errorf("total %g < numerical %g", rows[0].TotalForceErr, rows[0].NumericForceErr)
	}
	if !strings.Contains(out, "gpW") {
		t.Error("report missing gpW")
	}
}

func TestFig3(t *testing.T) {
	out, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "half-shell") {
		t.Errorf("Fig3 malformed:\n%s", out)
	}
}

func TestFig5(t *testing.T) {
	out, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gpW", "T7Lig", "water-only"} {
		if !strings.Contains(out, name) {
			t.Errorf("Fig5 missing %q", name)
		}
	}
}

func TestFig7Short(t *testing.T) {
	if testing.Short() {
		t.Skip("folding trace")
	}
	out, err := Fig7(30000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "transitions") {
		t.Errorf("Fig7 malformed:\n%s", out)
	}
}

func TestPropertiesReport(t *testing.T) {
	out, err := Properties(8)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"determinism", "parallel invariance", "reversibility"} {
		if !strings.Contains(out, want) {
			t.Errorf("Properties missing %q", want)
		}
	}
	if strings.Contains(out, "= false") {
		t.Errorf("a property failed:\n%s", out)
	}
}

func TestPartitionReport(t *testing.T) {
	out, err := Partition()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"512 nodes", "cluster", "Anton-512 over cluster-512",
		"Anton     1 nodes", "Anton 32768 nodes", "cluster 2048 nodes",
		"us/step(LR)", "subdiv", "ME", "32768      32x32x32",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Partition missing %q", want)
		}
	}
}

func TestAblationMantissa(t *testing.T) {
	out, err := AblationMantissa()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "22") {
		t.Error("missing 22-bit row")
	}
}

func TestAblationSubbox(t *testing.T) {
	out, err := AblationSubbox()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "PPIP util") {
		t.Error("malformed")
	}
}

func TestAblationMTS(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamics")
	}
	out, err := AblationMTS(200)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "interval") {
		t.Error("malformed")
	}
}

func TestAblationGSEvsSPME(t *testing.T) {
	out, err := AblationGSEvsSPME()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"GSE", "SPME", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestAblationNTvsHalfShell(t *testing.T) {
	out, err := AblationNTvsHalfShell()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "NT/HS") {
		t.Error("malformed")
	}
}

func TestWaterStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamics")
	}
	out, err := WaterStructure(160, 8)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "first peak") {
		t.Error("malformed")
	}
	t.Logf("\n%s", out)
}

func TestFig5Curve(t *testing.T) {
	out, err := Fig5Curve()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"5000", "120000", "plateau"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5Curve missing %q", want)
		}
	}
}

func TestBPTIExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("17k-atom dynamics")
	}
	out, err := BPTI(4)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"17758", "TIP4P-Ew", "modelled 512-node"} {
		if !strings.Contains(out, want) {
			t.Errorf("BPTI report missing %q", want)
		}
	}
}

func TestProfileMeasured(t *testing.T) {
	out, err := ProfileMeasured(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"range-limited", "FFT", "mesh spread+interp", "bonded", "pair list / migration",
		"core ms", "refmd ms", "core/refmd",
		"match efficiency", "migration-interval drift", "residency slack",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile report missing %q:\n%s", want, out)
		}
	}

	s, err := system.Small(true, 77)
	if err != nil {
		t.Fatal(err)
	}
	d, err := profileData(s, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != pipelineRows+1 {
		t.Fatalf("%d profile rows, want %d", len(d.Groups), pipelineRows+1)
	}
	for _, g := range d.Groups {
		// Every row is timed on both engines; refmd's FFT and mesh rows
		// in particular must both fill (spread and gather are booked
		// apart from the transforms).
		if g.MeasuredNs <= 0 || g.RefmdNs <= 0 {
			t.Errorf("row %q: core %d ns, refmd %d ns; both engines must book it",
				g.Name, g.MeasuredNs, g.RefmdNs)
		}
	}
}
