package mem

import (
	"testing"
	"testing/quick"
)

func TestHMC21Geometry(t *testing.T) {
	g := HMC21()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.RowsPerBank() != (8<<30)/(32*8*256) {
		t.Fatalf("rows per bank = %d", g.RowsPerBank())
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []Geometry{
		{Vaults: 0, Banks: 8, RowBytes: 256, Total: 1 << 30},
		{Vaults: 3, Banks: 8, RowBytes: 256, Total: 1 << 30},
		{Vaults: 32, Banks: 7, RowBytes: 256, Total: 1 << 30},
		{Vaults: 32, Banks: 8, RowBytes: 200, Total: 1 << 30},
		{Vaults: 32, Banks: 8, RowBytes: 256, Total: 3 << 20},
		{Vaults: 32, Banks: 8, RowBytes: 256, Total: 1 << 10}, // too small
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, g)
		}
	}
}

func TestDecomposeKnownValues(t *testing.T) {
	g := HMC21()
	// Address 0: everything zero.
	l := g.Decompose(0)
	if l != (Location{}) {
		t.Fatalf("Decompose(0) = %+v", l)
	}
	// One row buffer later: next vault.
	l = g.Decompose(256)
	if l.Vault != 1 || l.Bank != 0 || l.Row != 0 || l.Col != 0 {
		t.Fatalf("Decompose(256) = %+v", l)
	}
	// 32 rows later: wraps vaults, increments bank.
	l = g.Decompose(256 * 32)
	if l.Vault != 0 || l.Bank != 1 || l.Row != 0 {
		t.Fatalf("Decompose(8192) = %+v", l)
	}
	// 32*8 rows later: first row increment.
	l = g.Decompose(256 * 32 * 8)
	if l.Vault != 0 || l.Bank != 0 || l.Row != 1 {
		t.Fatalf("Decompose(65536) = %+v", l)
	}
	// Column offset preserved.
	l = g.Decompose(256 + 17)
	if l.Vault != 1 || l.Col != 17 {
		t.Fatalf("Decompose(273) = %+v", l)
	}
}

func TestSequentialStreamInterleavesVaults(t *testing.T) {
	g := HMC21()
	seen := make(map[uint32]bool)
	for i := 0; i < 32; i++ {
		l := g.Decompose(Addr(i * 256))
		if seen[l.Vault] {
			t.Fatalf("vault %d hit twice within one vault sweep", l.Vault)
		}
		seen[l.Vault] = true
	}
	if len(seen) != 32 {
		t.Fatalf("sequential 8 KiB touched %d vaults, want 32", len(seen))
	}
}

// Property: Compose is the inverse of Decompose for in-range addresses.
func TestComposeDecomposeRoundTrip(t *testing.T) {
	g := HMC21()
	f := func(raw uint64) bool {
		a := Addr(raw % g.Total)
		return g.Compose(g.Decompose(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRowBase(t *testing.T) {
	g := HMC21()
	if g.RowBase(0) != 0 || g.RowBase(255) != 0 || g.RowBase(256) != 256 {
		t.Fatal("RowBase misaligned")
	}
	if g.RowBase(1000) != 768 {
		t.Fatalf("RowBase(1000) = %d", g.RowBase(1000))
	}
}

// piece is one row-contained piece of a larger access.
type piece struct {
	Addr Addr
	Size uint32
}

// rowWalk walks [addr, addr+size) in RowSpan pieces, as the engines'
// DRAM fan-out does.
func rowWalk(g Geometry, addr Addr, size uint32) []piece {
	var out []piece
	for size > 0 {
		n := g.RowSpan(addr, size)
		out = append(out, piece{addr, n})
		addr += Addr(n)
		size -= n
	}
	return out
}

// TestSplit walks accesses into row-contained pieces with RowSpan.
func TestSplit(t *testing.T) {
	g := HMC21()
	if got := rowWalk(g, 0, 0); got != nil {
		t.Fatalf("walk of size 0 = %v", got)
	}
	// Fully within a row.
	cs := rowWalk(g, 10, 100)
	if len(cs) != 1 || cs[0] != (piece{Addr: 10, Size: 100}) {
		t.Fatalf("walk(10,100) = %v", cs)
	}
	// Exactly one row.
	cs = rowWalk(g, 256, 256)
	if len(cs) != 1 || cs[0] != (piece{Addr: 256, Size: 256}) {
		t.Fatalf("walk(256,256) = %v", cs)
	}
	// Straddling a boundary.
	cs = rowWalk(g, 200, 100)
	if len(cs) != 2 || cs[0] != (piece{Addr: 200, Size: 56}) || cs[1] != (piece{Addr: 256, Size: 44}) {
		t.Fatalf("walk(200,100) = %v", cs)
	}
	// Multi-row.
	cs = rowWalk(g, 0, 1024)
	if len(cs) != 4 {
		t.Fatalf("walk(0,1024) = %v", cs)
	}
	for i, c := range cs {
		if c.Size != 256 || c.Addr != Addr(i*256) {
			t.Fatalf("piece %d = %+v", i, c)
		}
	}
}

// Property: RowSpan pieces are contiguous, within-row, and cover the
// range.
func TestSplitProperty(t *testing.T) {
	g := HMC21()
	f := func(rawAddr uint32, rawSize uint16) bool {
		addr := Addr(rawAddr)
		size := uint32(rawSize)
		cs := rowWalk(g, addr, size)
		var covered uint32
		next := addr
		for _, c := range cs {
			if c.Addr != next || c.Size == 0 {
				return false
			}
			if g.RowBase(c.Addr) != g.RowBase(c.Addr+Addr(c.Size-1)) {
				return false // piece crosses a row
			}
			next += Addr(c.Size)
			covered += c.Size
		}
		return covered == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestFuncPort(t *testing.T) {
	called := false
	p := FuncPort(func(req *Request) bool { called = true; return true })
	if !p.Access(&Request{}) || !called {
		t.Fatal("FuncPort did not dispatch")
	}
}
