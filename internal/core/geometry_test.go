package core

import (
	"bytes"
	"strings"
	"testing"

	"ddr/internal/grid"
)

func e1GlobalGeometry() ([][]grid.Box, []grid.Box) {
	allChunks := make([][]grid.Box, 4)
	allNeeds := make([]grid.Box, 4)
	for r := 0; r < 4; r++ {
		allChunks[r], allNeeds[r] = e1Geometry(r)
	}
	return allChunks, allNeeds
}

// loadedPlan compiles rank's plan of a loaded geometry, as cmd/ddrplan
// -load does.
func loadedPlan(g Geometry, rank int) (*Plan, error) {
	allChunks, allNeeds, err := g.Boxes()
	if err != nil {
		return nil, err
	}
	return NewPlanFromGeometry(rank, g.ElemSize, allChunks, allNeeds)
}

func TestGeometrySaveLoadRoundTrip(t *testing.T) {
	allChunks, allNeeds := e1GlobalGeometry()
	plan, err := NewPlanFromGeometry(0, 4, allChunks, allNeeds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Geometry().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "elem_size") {
		t.Error("JSON missing elem_size")
	}
	g, err := LoadGeometry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replan, err := loadedPlan(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := plan.Stats()
	got := replan.Stats()
	if orig != got {
		t.Errorf("stats changed across save/load: %+v vs %+v", orig, got)
	}
	if replan.Rounds() != 2 {
		t.Errorf("rounds %d", replan.Rounds())
	}
}

func TestLoadGeometryValidation(t *testing.T) {
	cases := []string{
		"not json",
		`{"elem_size":0,"chunks":[],"needs":[]}`,
		`{"elem_size":4,"chunks":[[]],"needs":[]}`,
		`{"elem_size":4,"chunks":[],"needs":[]}`,
	}
	for i, c := range cases {
		if _, err := LoadGeometry(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Malformed box inside an otherwise valid geometry.
	bad := `{"elem_size":4,"chunks":[[{"offset":[0],"dims":[1,2]}]],"needs":[{"offset":[0],"dims":[4]}]}`
	g, err := LoadGeometry(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadedPlan(g, 0); err == nil {
		t.Error("mismatched box dims accepted")
	}
	// Out-of-range rank.
	good := `{"elem_size":4,"chunks":[[{"offset":[0],"dims":[4]}]],"needs":[{"offset":[0],"dims":[4]}]}`
	g, err = LoadGeometry(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadedPlan(g, 5); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := loadedPlan(g, 0); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}
