package rfid

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/pfilter"
)

func TestWarehouseLayout(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 100, Seed: 1})
	if len(w.Objects) != 100 {
		t.Fatalf("objects = %d", len(w.Objects))
	}
	if len(w.Shelves) != 10 {
		t.Fatalf("shelves = %d", len(w.Shelves))
	}
	// Every object sits near its shelf.
	for _, o := range w.Objects {
		s := w.Shelves[o.Shelf]
		if o.Pos.Dist(s.Pos) > 3 {
			t.Errorf("object %d is %g ft from its shelf", o.ID, o.Pos.Dist(s.Pos))
		}
	}
	// IDs resolve.
	if w.ObjectByID(1) == nil || w.ObjectByID(0) != nil || w.ObjectByID(101) != nil {
		t.Error("ObjectByID bounds wrong")
	}
}

func TestWarehouseDeterminism(t *testing.T) {
	a := NewWarehouse(WarehouseConfig{NumObjects: 50, Seed: 7})
	b := NewWarehouse(WarehouseConfig{NumObjects: 50, Seed: 7})
	for i := range a.Objects {
		if a.Objects[i].Pos != b.Objects[i].Pos || a.Objects[i].Weight != b.Objects[i].Weight {
			t.Fatal("same seed must give identical warehouses")
		}
	}
}

func TestMovementChangesShelf(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 1000, MoveProb: 0.5, Seed: 2})
	moved := w.StepMovement()
	if len(moved) < 300 {
		t.Errorf("with p=0.5 expected ~500 moves, got %d", len(moved))
	}
}

func TestSensingModelShape(t *testing.T) {
	c := SensingConfig{}.withDefaults()
	reader := pfilter.Point{X: 0, Y: 0}
	near := c.DetectProb(pfilter.Point{X: 1, Y: 0}, reader, 0)
	mid := c.DetectProb(pfilter.Point{X: 10, Y: 0}, reader, 0)
	far := c.DetectProb(pfilter.Point{X: 19, Y: 0}, reader, 0)
	if !(near > mid && mid > far) {
		t.Errorf("detection must decay with distance: %g, %g, %g", near, mid, far)
	}
	if c.DetectProb(pfilter.Point{X: 25, Y: 0}, reader, 0) != 0 {
		t.Error("outside MaxRange must be 0")
	}
	// Angle attenuation: object behind the reader is less likely than ahead.
	ahead := c.DetectProb(pfilter.Point{X: 5, Y: 0}, reader, 0)
	behind := c.DetectProb(pfilter.Point{X: -5, Y: 0}, reader, 0)
	if behind >= ahead {
		t.Errorf("angle attenuation missing: ahead %g, behind %g", ahead, behind)
	}
}

func TestInferenceModelPositive(t *testing.T) {
	c := SensingConfig{}.withDefaults()
	m := c.InferenceModel()
	if p := m(pfilter.Point{X: 100, Y: 0}, pfilter.Point{}); p <= 0 {
		t.Error("inference likelihood must stay positive (no zero-collapse)")
	}
	if m(pfilter.Point{X: 1, Y: 0}, pfilter.Point{}) <= m(pfilter.Point{X: 15, Y: 0}, pfilter.Point{}) {
		t.Error("inference model must decay with distance")
	}
}

func TestTraceGeneration(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 200, Seed: 3})
	tr := GenerateTrace(w, Reader{}, TraceConfig{Events: 500, Seed: 4})
	if len(tr.Events) != 500 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	// Some reads must happen.
	total := 0
	for _, ev := range tr.Events {
		total += len(ev.ObservedObjects)
	}
	if total == 0 {
		t.Fatal("trace has no object reads")
	}
	// Ground truth resolves for every object at every event.
	p0, _ := tr.TruthAt(1, 0)
	pEnd, _ := tr.TruthAt(1, 499)
	if p0 != pEnd && len(tr.Truth[1]) == 1 {
		t.Error("truth history inconsistent")
	}
}

func TestTraceDeterminism(t *testing.T) {
	mk := func() *Trace {
		w := NewWarehouse(WarehouseConfig{NumObjects: 100, Seed: 5})
		return GenerateTrace(w, Reader{}, TraceConfig{Events: 200, Seed: 6})
	}
	a, b := mk(), mk()
	for i := range a.Events {
		if len(a.Events[i].ObservedObjects) != len(b.Events[i].ObservedObjects) {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestTransformerReducesError(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 100, Seed: 8, MoveProb: -1})
	reader := Reader{}.withDefaults()
	tr := GenerateTrace(w, reader, TraceConfig{Events: 2000, Seed: 9})
	tx := NewTransformer(w, reader.Sensing, TransformerConfig{
		Particles: 100, UseIndex: true, NegativeEvidence: true, Seed: 10,
	})
	var ids []int64
	for _, o := range w.Objects {
		ids = append(ids, o.ID)
	}
	before := XYError(tr, tx.Filter(), ids, 0)
	var tuples int
	for _, ev := range tr.Events {
		tuples += len(tx.Process(ev))
	}
	after := XYError(tr, tx.Filter(), ids, len(tr.Events)-1)
	if tuples == 0 {
		t.Fatal("no tuples emitted")
	}
	if after >= before/2 {
		t.Errorf("inference error did not improve: before %g ft, after %g ft", before, after)
	}
	// With a full sweep the posterior should land within a few feet.
	if after > 5 {
		t.Errorf("post-sweep error %g ft too large", after)
	}
}

func TestTransformerTupleDistributions(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 50, Seed: 11, MoveProb: -1})
	reader := Reader{}.withDefaults()
	tr := GenerateTrace(w, reader, TraceConfig{Events: 800, Seed: 12})
	tx := NewTransformer(w, reader.Sensing, TransformerConfig{Particles: 80, UseIndex: true, NegativeEvidence: true, Seed: 13})
	var last LocationTuple
	n := 0
	for _, ev := range tr.Events {
		for _, lt := range tx.Process(ev) {
			last = lt
			n++
		}
	}
	if n == 0 {
		t.Fatal("no tuples")
	}
	// The tuple must carry genuine distributions with positive spread.
	if last.X.Variance() <= 0 || last.Y.Variance() <= 0 {
		t.Error("tuple-level distributions must have positive variance")
	}
	iv := dist.ConfidenceInterval(last.X, 0.9)
	if iv.Width() <= 0 {
		t.Error("confidence region must be non-degenerate")
	}
	if last.Particles <= 0 {
		t.Error("tuple should report particle count")
	}
}

func TestAccuracyEstimatorTracksShelfError(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 100, Seed: 14})
	reader := Reader{}.withDefaults()
	tr := GenerateTrace(w, reader, TraceConfig{Events: 500, Seed: 15})
	tx := NewTransformer(w, reader.Sensing, TransformerConfig{Particles: 50, UseIndex: true, Seed: 16})
	for _, ev := range tr.Events {
		tx.Process(ev)
	}
	// The proxy error should be on the order of the read range, not zero
	// and not the warehouse diameter.
	acc := tx.Accuracy()
	if acc <= 0 || acc > reader.Sensing.MaxRange {
		t.Errorf("reference accuracy = %g ft", acc)
	}
}

func TestAreaFunctions(t *testing.T) {
	x := dist.NewNormal(3.5, 0.1)
	y := dist.NewNormal(9.5, 0.1)
	masses := AppendAreaMasses(nil, dist.ValOf(x), dist.ValOf(y), 1, 0.01, newAreaMass)
	var total float64
	found := false
	for _, m := range masses {
		total += m.P
		if m.Area == "A3_9" && m.P > 0.9 {
			found = true
		}
	}
	if !found {
		t.Errorf("tight distribution should concentrate in A3_9: %v", masses)
	}
	if total > 1+1e-9 {
		t.Errorf("area masses sum to %g > 1", total)
	}
	// A wide distribution spreads over many cells.
	wide := AppendAreaMasses(nil, dist.ValOf(dist.NewNormal(0, 3)), dist.ValOf(dist.NewNormal(0, 3)), 1, 0.001, newAreaMass)
	if len(wide) < 9 {
		t.Errorf("wide location covers %d cells", len(wide))
	}
}

func TestWeightAndType(t *testing.T) {
	w := NewWarehouse(WarehouseConfig{NumObjects: 100, Seed: 17})
	if w.Weight(1) < 5 || w.Weight(1) > 50 {
		t.Errorf("weight = %g", w.Weight(1))
	}
	if w.Weight(9999) != 0 {
		t.Error("unknown tag weight should be 0")
	}
	flam := 0
	for _, o := range w.Objects {
		if w.ObjectType(o.ID) == "flammable" {
			flam++
		}
	}
	if flam == 0 || flam > 30 {
		t.Errorf("flammable count = %d", flam)
	}
	if w.ObjectType(9999) != "unknown" {
		t.Error("unknown tag type")
	}
}

func TestReaderPathCoversFloor(t *testing.T) {
	r := Reader{}.withDefaults()
	w := NewWarehouse(WarehouseConfig{NumObjects: 400, Seed: 18})
	seen := map[[2]int]bool{}
	for s := 0.0; s < w.Width*float64(int(w.Depth/r.LanePitch))*2; s += 2 {
		p, _ := r.PathAt(s, w.Width, w.Depth)
		if p.X < -1 || p.X > w.Width+1 || p.Y < -1 || p.Y > w.Depth+1 {
			t.Fatalf("path left the floor: %v", p)
		}
		seen[[2]int{int(p.X / 10), int(p.Y / 10)}] = true
	}
	if len(seen) < 10 {
		t.Errorf("path covered only %d cells", len(seen))
	}
	if math.IsNaN(r.SpeedFtPerSec) {
		t.Fatal("unreachable")
	}
}
