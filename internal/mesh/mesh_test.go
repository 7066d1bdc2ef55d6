package mesh

import (
	"testing"
	"testing/quick"
)

func TestGridIndexing(t *testing.T) {
	g := NewGrid(8, 5, 4.0, 2.5)
	if g.Cells() != 40 {
		t.Fatalf("cells = %d", g.Cells())
	}
	if g.Dx() != 0.5 || g.Dy() != 0.5 {
		t.Fatalf("dx=%v dy=%v", g.Dx(), g.Dy())
	}
	if g.Index(3, 2) != 19 {
		t.Fatalf("index(3,2) = %d", g.Index(3, 2))
	}
	x, y := g.Center(0, 0)
	if x != 0.25 || y != 0.25 {
		t.Fatalf("center(0,0) = (%v,%v)", x, y)
	}
	x, y = g.Corner(8, 5)
	if x != 4.0 || y != 2.5 {
		t.Fatalf("corner(Nx,Ny) = (%v,%v)", x, y)
	}
}

func TestGridRowColumn(t *testing.T) {
	g := NewGrid(4, 3, 1, 1)
	row := g.Row(1)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row(1) = %v", row)
		}
	}
	col := g.Column(2)
	wantCol := []int{2, 6, 10}
	for i := range wantCol {
		if col[i] != wantCol[i] {
			t.Fatalf("column(2) = %v", col)
		}
	}
}

func TestGridInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(0, 5, 1, 1)
}

func TestBlockPartitionTiles(t *testing.T) {
	for _, tc := range []struct{ cells, parts int }{
		{10, 3}, {10, 1}, {10, 10}, {10, 11}, {0, 4}, {1000003, 17},
	} {
		ps := BlockPartition(tc.cells, tc.parts)
		if len(ps) != tc.parts {
			t.Fatalf("%v: %d parts", tc, len(ps))
		}
		covered := 0
		prevHi := 0
		maxLen, minLen := 0, 1<<62
		for _, p := range ps {
			if p.Lo != prevHi {
				t.Fatalf("%v: gap or overlap at %d", tc, p.Lo)
			}
			prevHi = p.Hi
			covered += p.Len()
			if p.Len() > maxLen {
				maxLen = p.Len()
			}
			if p.Len() < minLen {
				minLen = p.Len()
			}
		}
		if covered != tc.cells || prevHi != tc.cells {
			t.Fatalf("%v: covered %d of %d", tc, covered, tc.cells)
		}
		if tc.cells > 0 && maxLen-minLen > 1 {
			t.Fatalf("%v: unbalanced partition (%d..%d)", tc, minLen, maxLen)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Partition{10, 20}
	cases := []struct {
		b    Partition
		want Partition
	}{
		{Partition{0, 5}, Partition{10, 10}},   // disjoint left
		{Partition{25, 30}, Partition{25, 25}}, // disjoint right (empty, clamped)
		{Partition{15, 25}, Partition{15, 20}},
		{Partition{0, 15}, Partition{10, 15}},
		{Partition{12, 18}, Partition{12, 18}},
		{Partition{10, 20}, Partition{10, 20}},
	}
	for _, c := range cases {
		got := a.Intersect(c.b)
		if got.Len() != c.want.Len() || (got.Len() > 0 && got != c.want) {
			t.Errorf("intersect(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

// Partition-completeness invariant (DESIGN.md #4): the N×M routing delivers
// every cell exactly once, for arbitrary rank/process counts.
func TestRouteDeliversEveryCellOnce(t *testing.T) {
	f := func(rawCells uint16, rawN, rawM uint8) bool {
		cells := int(rawCells)%5000 + 1
		n := int(rawN)%8 + 1
		m := int(rawM)%8 + 1
		simParts := BlockPartition(cells, n)
		srvParts := BlockPartition(cells, m)
		transfers := Route(simParts, srvParts)

		seen := make([]int, cells)
		for _, tr := range transfers {
			if !simParts[tr.SimRank].Contains(tr.Cells.Lo) ||
				tr.Cells.Hi > simParts[tr.SimRank].Hi {
				return false // transfer outside its sender's partition
			}
			if !srvParts[tr.ServerRank].Contains(tr.Cells.Lo) ||
				tr.Cells.Hi > srvParts[tr.ServerRank].Hi {
				return false // transfer outside its receiver's partition
			}
			for c := tr.Cells.Lo; c < tr.Cells.Hi; c++ {
				seen[c]++
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRouteTransferCount(t *testing.T) {
	// With equal partitionings the routing is the identity: N transfers.
	simParts := BlockPartition(100, 4)
	srvParts := BlockPartition(100, 4)
	transfers := Route(simParts, srvParts)
	if len(transfers) != 4 {
		t.Fatalf("aligned routing has %d transfers, want 4", len(transfers))
	}
	for _, tr := range transfers {
		if tr.SimRank != tr.ServerRank {
			t.Fatalf("aligned routing should map rank to same process: %+v", tr)
		}
	}
}
