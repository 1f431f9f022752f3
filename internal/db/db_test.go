package db

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hipe-sim/hipe/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(1000, 42)
	b := Generate(1000, 42)
	for i := 0; i < 1000; i++ {
		if a.ShipDate[i] != b.ShipDate[i] || a.Discount[i] != b.Discount[i] ||
			a.Quantity[i] != b.Quantity[i] || a.ExtendedPrice[i] != b.ExtendedPrice[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	c := Generate(1000, 43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.ShipDate[i] == c.ShipDate[i] {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d identical shipdates", same)
	}
}

func TestGenerateRanges(t *testing.T) {
	tab := Generate(5000, 7)
	for i := 0; i < tab.N; i++ {
		if d := tab.ShipDate[i]; d < 0 || d >= ShipDateDays {
			t.Fatalf("shipdate %d out of range", d)
		}
		if d := tab.Discount[i]; d < 0 || d > 10 {
			t.Fatalf("discount %d out of range", d)
		}
		if q := tab.Quantity[i]; q < 1 || q > 50 {
			t.Fatalf("quantity %d out of range", q)
		}
		if p := tab.ExtendedPrice[i]; p < 90000 || p >= 106000 {
			t.Fatalf("extendedprice %d out of range", p)
		}
	}
}

func TestQ06SelectivityNearTPCH(t *testing.T) {
	tab := Generate(200000, 1)
	sel := Selectivity(tab, DefaultQ06())
	// TPC-H Q06 selects ~1.9% of lineitem. Expected here:
	// (365/2557) * (3/11) * (23/50) ≈ 0.0179.
	if sel < 0.012 || sel > 0.026 {
		t.Fatalf("Q06 selectivity = %.4f, want ≈ 0.018", sel)
	}
}

func TestPerColumnSelectivities(t *testing.T) {
	tab := Generate(100000, 2)
	q := DefaultQ06()
	ship := float64(isa.PopcountMask(ColumnMask(tab, q, FieldShipDate))) / float64(tab.N)
	disc := float64(isa.PopcountMask(ColumnMask(tab, q, FieldDiscount))) / float64(tab.N)
	qty := float64(isa.PopcountMask(ColumnMask(tab, q, FieldQuantity))) / float64(tab.N)
	if ship < 0.12 || ship > 0.17 {
		t.Fatalf("shipdate selectivity %.3f, want ≈ 0.143", ship)
	}
	if disc < 0.24 || disc > 0.31 {
		t.Fatalf("discount selectivity %.3f, want ≈ 0.27", disc)
	}
	if qty < 0.42 || qty > 0.50 {
		t.Fatalf("quantity selectivity %.3f, want ≈ 0.46", qty)
	}
}

func TestReferenceAgainstBruteForce(t *testing.T) {
	tab := Generate(777, 5)
	q := DefaultQ06()
	ref := Reference(tab, q)
	matches := 0
	var revenue int64
	for i := 0; i < tab.N; i++ {
		m := tab.ShipDate[i] >= q.ShipLo && tab.ShipDate[i] < q.ShipHi &&
			tab.Discount[i] >= q.DiscLo && tab.Discount[i] <= q.DiscHi &&
			tab.Quantity[i] < q.QtyHi
		if m != (ref.Bitmask[i/8]&(1<<(i%8)) != 0) {
			t.Fatalf("bitmask wrong at %d", i)
		}
		if m {
			matches++
			revenue += int64(tab.ExtendedPrice[i]) * int64(tab.Discount[i])
		}
	}
	if matches != ref.Matches || revenue != ref.Revenue {
		t.Fatalf("matches/revenue = %d/%d, want %d/%d",
			ref.Matches, ref.Revenue, matches, revenue)
	}
}

// Property: the AND of the three column masks equals the full bitmask.
func TestColumnMasksComposeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		tab := Generate(n, seed)
		q := DefaultQ06()
		ref := Reference(tab, q)
		s := ColumnMask(tab, q, FieldShipDate)
		d := ColumnMask(tab, q, FieldDiscount)
		qt := ColumnMask(tab, q, FieldQuantity)
		for i := range ref.Bitmask {
			if ref.Bitmask[i] != s[i]&d[i]&qt[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnMaskPanicsOnNonPredicateColumn(t *testing.T) {
	tab := Generate(8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for extendedprice mask")
		}
	}()
	ColumnMask(tab, DefaultQ06(), FieldExtendedPrice)
}

func TestArena(t *testing.T) {
	a := NewArena(1024)
	p0 := a.Alloc(10, 1)
	if p0 != 0 {
		t.Fatalf("first alloc at %d", p0)
	}
	p1 := a.Alloc(16, 256)
	if p1 != 256 {
		t.Fatalf("aligned alloc at %d, want 256", p1)
	}
	if a.Used() != 272 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArena(64)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted arena did not panic")
		}
	}()
	a.Alloc(100, 1)
}

func TestArenaBadAlignPanics(t *testing.T) {
	a := NewArena(64)
	defer func() {
		if recover() == nil {
			t.Fatal("bad alignment did not panic")
		}
	}()
	a.Alloc(8, 3)
}

func TestLayoutNSM(t *testing.T) {
	tab := Generate(100, 9)
	image := make([]byte, 1<<16)
	a := NewArena(uint64(len(image)))
	l := LayoutNSM(image, a, tab)
	if l.Base%256 != 0 {
		t.Fatal("NSM base not row aligned")
	}
	for i := 0; i < tab.N; i++ {
		off := uint64(l.TupleAddr(i))
		if isa.LaneAt(image[off:], FieldShipDate) != tab.ShipDate[i] {
			t.Fatalf("shipdate wrong at tuple %d", i)
		}
		if isa.LaneAt(image[off:], FieldQuantity) != tab.Quantity[i] {
			t.Fatalf("quantity wrong at tuple %d", i)
		}
		// Filler pattern present.
		if isa.LaneAt(image[off:], 10) != 0x0F0A {
			t.Fatalf("filler wrong at tuple %d: %#x", i, isa.LaneAt(image[off:], 10))
		}
	}
	if l.FieldAddr(3, FieldDiscount) != l.Base+3*64+4 {
		t.Fatal("FieldAddr arithmetic wrong")
	}
}

func TestLayoutDSM(t *testing.T) {
	tab := Generate(100, 9)
	image := make([]byte, 1<<16)
	a := NewArena(uint64(len(image)))
	l := LayoutDSM(image, a, tab)
	for _, col := range []int{FieldShipDate, FieldDiscount, FieldQuantity, FieldExtendedPrice} {
		base := l.ColBase[col]
		if base%256 != 0 {
			t.Fatalf("column %d base %d not row aligned", col, base)
		}
	}
	for i := 0; i < tab.N; i++ {
		if isa.LaneAt(image[l.ColBase[FieldDiscount]:], i) != tab.Discount[i] {
			t.Fatalf("discount wrong at %d", i)
		}
	}
	if l.ValueAddr(FieldQuantity, 10) != l.ColBase[FieldQuantity]+40 {
		t.Fatal("ValueAddr arithmetic wrong")
	}
	// Columns must not overlap: each column occupies N*4 bytes rounded up
	// to whole 256 B rows.
	padded := (uint64(tab.N*ColumnWidth) + 255) &^ 255
	if uint64(l.ColBase[FieldDiscount]) < uint64(l.ColBase[FieldShipDate])+padded {
		t.Fatal("columns overlap")
	}
}

// TestRNGExpGap pins the one exponential-gap draw serve's arrivals and
// fault's windows share: a seed fixes the sequence, the draws average
// to the requested mean, the clamp bounds every draw at -ln(1e-12)
// means, and a zero mean draws zero.
func TestRNGExpGap(t *testing.T) {
	const mean, n = 1000.0, 20000
	a, b := NewRNG(7), NewRNG(7)
	limit := uint64(math.Round(-math.Log(1e-12) * mean))
	var sum float64
	for i := 0; i < n; i++ {
		g := a.ExpGap(mean)
		if h := b.ExpGap(mean); g != h {
			t.Fatalf("draw %d: %d then %d from the same seed", i, g, h)
		}
		if g > limit {
			t.Fatalf("draw %d: gap %d past the clamp's bound %d", i, g, limit)
		}
		sum += float64(g)
	}
	if got := sum / n; math.Abs(got-mean) > 0.03*mean {
		t.Errorf("mean gap %.1f over %d draws, want %.0f within 3%%", got, n, mean)
	}
	if g := NewRNG(7).ExpGap(0); g != 0 {
		t.Errorf("zero mean drew gap %d", g)
	}
}
