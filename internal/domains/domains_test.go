package domains

import (
	"testing"

	"blockfanout/internal/blocks"
	"blockfanout/internal/gen"
	ord "blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/symbolic"
)

func structureFor(t *testing.T, m *sparse.Matrix, method ord.Method, gridDim, b int) (*symbolic.Structure, *blocks.Structure) {
	t.Helper()
	p, err := ord.Compute(method, m, gridDim)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, st, err := symbolic.AnalyzeOrdering(m, p, symbolic.DefaultAmalgamation())
	if err != nil {
		t.Fatal(err)
	}
	bs, err := blocks.Build(st, blocks.NewPartition(st, b))
	if err != nil {
		t.Fatal(err)
	}
	return st, bs
}

func TestSelectBasics(t *testing.T) {
	st, bs := structureFor(t, gen.Grid2D(20), ord.NDGrid2D, 20, 4)
	p := 9
	d := Select(st, bs, p, 2)
	if len(d.PanelOwner) != bs.N() || len(d.BaseLoad) != p {
		t.Fatal("sizes wrong")
	}
	if d.NDomains == 0 {
		t.Fatal("no domains selected on a grid problem")
	}
	// Base loads + root work must equal total work.
	var base int64
	for _, l := range d.BaseLoad {
		base += l
	}
	if base+d.RootWork != bs.TotalWork {
		t.Fatalf("base %d + root %d != total %d", base, d.RootWork, bs.TotalWork)
	}
	// Owners in range; root panels marked -1.
	roots := 0
	for _, o := range d.PanelOwner {
		if o < -1 || o >= p {
			t.Fatalf("owner %d out of range", o)
		}
		if o == -1 {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("no root portion left")
	}
}

func TestDomainsAreSubtreeClosed(t *testing.T) {
	// If a panel is in a domain, every panel of every descendant
	// supernode is in the same domain.
	st, bs := structureFor(t, gen.IrregularMesh(400, 5, 3, 66), ord.MinDegree, 0, 8)
	d := Select(st, bs, 8, 2)
	part := bs.Part
	// supernode → owner (or -1); all panels of a supernode share owners.
	snOwner := make([]int, len(st.Snodes))
	for s := range snOwner {
		snOwner[s] = -2
	}
	for pn := 0; pn < part.N(); pn++ {
		s := part.SnodeOf[pn]
		if snOwner[s] == -2 {
			snOwner[s] = d.PanelOwner[pn]
		} else if snOwner[s] != d.PanelOwner[pn] {
			t.Fatalf("supernode %d split across owners", s)
		}
	}
	for s, par := range st.Parent {
		if par < 0 {
			continue
		}
		// A domain child's parent is either the same domain or any other
		// region; but a non-domain (root) supernode must never have a
		// domain ancestor... equivalently: if parent is in a domain, the
		// child must be in the same domain.
		if snOwner[par] >= 0 && snOwner[s] != snOwner[par] {
			t.Fatalf("supernode %d (owner %d) under domain parent %d (owner %d)",
				s, snOwner[s], par, snOwner[par])
		}
	}
}

func TestDomainLoadBalanced(t *testing.T) {
	st, bs := structureFor(t, gen.Cube3D(9), ord.NDCube3D, 9, 6)
	p := 16
	d := Select(st, bs, p, 2)
	var mx, mn int64
	mn = 1 << 62
	for _, l := range d.BaseLoad {
		if l > mx {
			mx = l
		}
		if l < mn {
			mn = l
		}
	}
	if mx == 0 {
		t.Skip("no domain work on this problem")
	}
	// Greedy LPT over many small domains should stay within ~2.5× between
	// lightest and heaviest bins.
	if mn == 0 || float64(mx)/float64(mn) > 2.5 {
		t.Fatalf("domain packing skewed: min %d max %d (ndomains=%d)", mn, mx, d.NDomains)
	}
}

func TestBetaDefaulting(t *testing.T) {
	st, bs := structureFor(t, gen.Grid2D(12), ord.NDGrid2D, 12, 4)
	d := Select(st, bs, 4, 0) // beta ≤ 0 → default 2
	if d.NDomains == 0 {
		t.Fatal("default beta selected no domains")
	}
}

func TestLargerBetaMakesSmallerDomains(t *testing.T) {
	st, bs := structureFor(t, gen.Grid2D(24), ord.NDGrid2D, 24, 4)
	d2 := Select(st, bs, 8, 2)
	d8 := Select(st, bs, 8, 8)
	if d8.NDomains < d2.NDomains {
		t.Fatalf("beta=8 gave fewer domains (%d) than beta=2 (%d)", d8.NDomains, d2.NDomains)
	}
	if d8.RootWork < d2.RootWork {
		t.Fatalf("beta=8 left less root work (%d) than beta=2 (%d)", d8.RootWork, d2.RootWork)
	}
}
