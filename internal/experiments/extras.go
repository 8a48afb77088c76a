package experiments

import (
	"fmt"
	"io"

	"blockfanout/internal/blocks"
	"blockfanout/internal/critpath"
	"blockfanout/internal/gen"
	"blockfanout/internal/loadbal"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/oracle"
	"blockfanout/internal/sched"
)

// AltHeuristic reproduces the first §4.2 experiment: the per-processor
// refinement heuristic (row map chosen to minimize the single most loaded
// processor, columns cyclic) against the primary aggregate-row heuristic.
// Expected shape: balance improves further (typically 10–15%), realized
// performance does not.
func AltHeuristic(w io.Writer, cfg Config) error {
	g := grid(cfg.P1)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n",
		"Matrix", "bal(DW/CY)", "bal(PP)", "Δbal", "Mf(DW/CY)", "Mf(PP)")
	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		primary := plan.Map(g, mapping.DW, mapping.CY)
		refined := mapping.NewPerProcessor(g, mapping.DW, mapping.CY, plan.BS, plan.PanelDepth)
		balP := loadbal.Compute(plan.BS, primary).Overall
		balR := loadbal.Compute(plan.BS, refined).Overall
		mfP := mflops(plan, plan.Simulate(plan.Assign(primary, cfg.DomainBeta), cfg.Machine))
		mfR := mflops(plan, plan.Simulate(plan.Assign(refined, cfg.DomainBeta), cfg.Machine))
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %9.0f%% %10.0f %10.0f\n",
			p.Name, balP, balR, pct(balR, balP), mfP, mfR)
	}
	return nil
}

// RelPrime reproduces the second §4.2 experiment: running the plain cyclic
// mapping on one fewer processor, making the grid dimensions relatively
// prime (63 = 9×7, 99 = 11×9), eliminates the diagonal imbalance and
// recovers most — but not all — of the heuristics' gain.
func RelPrime(w io.Writer, cfg Config) error {
	for _, procs := range []int{cfg.P1, cfg.P2} {
		gs := grid(procs)
		gr := mapping.BestGrid(procs - 1)
		fmt.Fprintf(w, "\nP=%d (grid %dx%d) vs P=%d (grid %dx%d, coprime=%v)\n",
			procs, gs.Pr, gs.Pc, procs-1, gr.Pr, gr.Pc, gr.RelativelyPrime())
		fmt.Fprintf(w, "%-12s %10s %10s %12s %12s %12s\n",
			"Matrix", "bal(P)", "bal(P-1)", "Mf cyclic", "Mf relprime", "Mf heuristic")
		for _, p := range gen.Table1Suite(cfg.Scale) {
			plan, err := PlanFor(p, cfg.Scale, cfg.B)
			if err != nil {
				return err
			}
			cyS := mapping.Cyclic(gs, plan.BS.N())
			cyR := mapping.Cyclic(gr, plan.BS.N())
			balS := loadbal.Compute(plan.BS, cyS).Overall
			balR := loadbal.Compute(plan.BS, cyR).Overall
			mfS := mflops(plan, plan.Simulate(plan.Assign(cyS, cfg.DomainBeta), cfg.Machine))
			mfR := mflops(plan, plan.Simulate(plan.Assign(cyR, cfg.DomainBeta), cfg.Machine))
			mfH := mflops(plan, simulate(plan, gs, mapping.ID, mapping.CY, cfg))
			fmt.Fprintf(w, "%-12s %10.2f %10.2f %12.0f %12.0f %12.0f\n",
				p.Name, balS, balR, mfS, mfR, mfH)
		}
	}
	return nil
}

// CommFraction reproduces the §5 instrumentation: on the Paragon model,
// communication costs stay below ~20% of total runtime even at P=196, and
// most of the remaining non-compute time is idle waiting for data.
func CommFraction(w io.Writer, cfg Config) error {
	g := grid(cfg.PL2)
	fmt.Fprintf(w, "%-12s %12s %10s %8s %8s %8s\n",
		"Matrix", "time (s)", "comm max", "comp", "comm", "idle")
	for _, p := range gen.Table7Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		res := simulate(plan, g, mapping.ID, mapping.CY, cfg)
		comp, comm, idle := res.Breakdown()
		fmt.Fprintf(w, "%-12s %12.4f %9.1f%% %7.0f%% %7.0f%% %7.0f%%\n",
			p.Name, res.Time, res.CommFraction()*100, comp*100, comm*100, idle*100)
	}
	return nil
}

// OneDim compares the runtime scaling of a 1-D block-column mapping (a 1×P
// grid) against the 2-D √P×√P cyclic mapping — the introduction's argument
// for 2-D mappings: the 1-D method stops scaling early because its
// communication volume grows linearly in P and its critical path is long.
func OneDim(w io.Writer, cfg Config) error {
	name := "CUBE30"
	p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
	if !ok {
		return fmt.Errorf("experiments: %s missing", name)
	}
	plan, err := PlanFor(p, cfg.Scale, cfg.B)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: simulated Mflops by machine size and mapping\n", name)
	fmt.Fprintf(w, "%6s %12s %12s %12s\n", "P", "1-D cyclic", "2-D cyclic", "2-D ID/CY")
	for _, procs := range []int{4, 16, 64, 144} {
		g2 := grid(procs)
		g1 := mapping.Grid{Pr: 1, Pc: procs}
		m1 := mapping.Cyclic(g1, plan.BS.N())
		m2 := mapping.Cyclic(g2, plan.BS.N())
		mh := plan.Map(g2, mapping.ID, mapping.CY)
		f1 := mflops(plan, plan.Simulate(plan.Assign(m1, cfg.DomainBeta), cfg.Machine))
		f2 := mflops(plan, plan.Simulate(plan.Assign(m2, cfg.DomainBeta), cfg.Machine))
		fh := mflops(plan, plan.Simulate(plan.Assign(mh, cfg.DomainBeta), cfg.Machine))
		fmt.Fprintf(w, "%6d %12.0f %12.0f %12.0f\n", procs, f1, f2, fh)
	}
	return nil
}

// CritPath reproduces the §5 critical-path analysis: the ratio between the
// performance admitted by the critical path and the achieved performance —
// the paper reports ~50% headroom for BCSSTK15 and ~30% for BCSSTK31 on 100
// processors.
func CritPath(w io.Writer, cfg Config) error {
	g := grid(cfg.P2)
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "Matrix", "achieved (Mf)", "CP bound (Mf)", "headroom")
	for _, name := range []string{"BCSSTK15", "BCSSTK31"} {
		p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
		if !ok {
			return fmt.Errorf("experiments: %s missing", name)
		}
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		res := simulate(plan, g, mapping.ID, mapping.CY, cfg)
		ach := mflops(plan, res)
		cp := plan.CriticalPath(cfg.Machine)
		bound := float64(plan.Exact.Flops) / cp / 1e6
		// Performance cannot exceed P processors' aggregate rate either.
		if lim := float64(cfg.P2) * cfg.Machine.FlopRate / 1e6; bound > lim {
			bound = lim
		}
		fmt.Fprintf(w, "%-12s %14.0f %14.0f %9.0f%%\n", p.Name, ach, bound, pct(bound, ach))
	}
	return nil
}

// Subcube reproduces the §5 subtree-to-subcube experiment: the
// communication-reducing column mapping cuts volume (up to ~30%) but loses
// the load balance the heuristics achieve, so realized performance drops.
func Subcube(w io.Writer, cfg Config) error {
	g := grid(cfg.P1)
	fmt.Fprintf(w, "%-12s %11s %11s %8s %10s %10s %11s %11s\n",
		"Matrix", "bytes(heur)", "bytes(sub)", "Δvol", "bal(heur)", "bal(sub)", "Mf(heur)", "Mf(sub)")
	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		heur := plan.Map(g, mapping.ID, mapping.CY)
		sub := mapping.Compose(g, mapping.ID, mapping.SubcubeColumns(plan.Sym, plan.BS, g.Pc), plan.BS, plan.PanelDepth)
		volH := sched.Build(plan.BS, sched.Assignment{Map: heur}).TotalBytes
		volS := sched.Build(plan.BS, sched.Assignment{Map: sub}).TotalBytes
		balH := loadbal.Compute(plan.BS, heur).Overall
		balS := loadbal.Compute(plan.BS, sub).Overall
		mfH := mflops(plan, plan.Simulate(plan.Assign(heur, cfg.DomainBeta), cfg.Machine))
		mfS := mflops(plan, plan.Simulate(plan.Assign(sub, cfg.DomainBeta), cfg.Machine))
		fmt.Fprintf(w, "%-12s %11d %11d %7.0f%% %10.2f %10.2f %11.0f %11.0f\n",
			p.Name, volH, volS, pct(float64(volS), float64(volH)),
			balH, balS, mfH, mfS)
	}
	return nil
}

// BlockSize is the §5 block-size ablation, in three parts:
//
//  1. a uniform-B sweep (overall balance and simulated performance of the
//     cyclic and heuristic mappings — the paper's B=48 operating point),
//  2. the stage-varying policy (large blocks early, small late), which the
//     paper found does NOT improve load balance while cutting parallelism,
//  3. the processor-position-cycled policy (block size chosen by the
//     processor column a panel maps to), which helped modestly.
func BlockSize(w io.Writer, cfg Config) error {
	sizes := []int{8, 16, 24, 32, 48, 64, 96}
	if cfg.Scale == gen.ScaleCI {
		sizes = []int{4, 8, 12, 16, 24, 32}
	}
	g := grid(cfg.P1)
	for _, name := range []string{"GRID300", "BCSSTK31"} {
		p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
		if !ok {
			return fmt.Errorf("experiments: %s missing", name)
		}
		fmt.Fprintf(w, "\n%s: uniform block-size sweep\n%6s %10s %10s %12s %12s\n",
			p.Name, "B", "bal(CY)", "bal(ID/CY)", "Mf(CY)", "Mf(ID/CY)")
		for _, b := range sizes {
			plan, err := PlanFor(p, cfg.Scale, b)
			if err != nil {
				return err
			}
			cy := mapping.Cyclic(g, plan.BS.N())
			he := plan.Map(g, mapping.ID, mapping.CY)
			balC := loadbal.Compute(plan.BS, cy).Overall
			balH := loadbal.Compute(plan.BS, he).Overall
			mfC := mflops(plan, plan.Simulate(plan.Assign(cy, cfg.DomainBeta), cfg.Machine))
			mfH := mflops(plan, plan.Simulate(plan.Assign(he, cfg.DomainBeta), cfg.Machine))
			fmt.Fprintf(w, "%6d %10.2f %10.2f %12.0f %12.0f\n", b, balC, balH, mfC, mfH)
		}
		if err := blockSizeVariants(w, cfg, p, g); err != nil {
			return err
		}
	}
	return nil
}

// blockSizeVariants runs the stage-varying and processor-cycled partitions
// against the uniform baseline under a cyclic mapping.
func blockSizeVariants(w io.Writer, cfg Config, p gen.Problem, g mapping.Grid) error {
	plan, err := PlanFor(p, cfg.Scale, cfg.B)
	if err != nil {
		return err
	}
	n := plan.Sym.N
	small, big := cfg.B/2, cfg.B
	if small < 1 {
		small = 1
	}
	cycled := make([]int, g.Pc)
	for c := range cycled {
		// Widths ramp across the processor columns around the target B.
		cycled[c] = small + (big-small)*c/maxInt(1, g.Pc-1) + small/2
	}
	stagedDown, err := blocks.NewPartitionStaged(plan.Sym, big, small, n/2)
	if err != nil {
		return err
	}
	stagedUp, err := blocks.NewPartitionStaged(plan.Sym, small, big, n/2)
	if err != nil {
		return err
	}
	cycledPart, err := blocks.NewPartitionCycled(plan.Sym, cycled)
	if err != nil {
		return err
	}
	variants := []struct {
		label string
		part  *blocks.Partition
	}{
		{fmt.Sprintf("uniform B=%d", cfg.B), blocks.NewPartition(plan.Sym, cfg.B)},
		{fmt.Sprintf("staged %d→%d", big, small), stagedDown},
		{fmt.Sprintf("staged %d→%d", small, big), stagedUp},
		{"cycled by proc col", cycledPart},
	}
	fmt.Fprintf(w, "%s: non-uniform block-size policies (cyclic mapping, P=%d)\n", p.Name, g.P())
	fmt.Fprintf(w, "%-22s %8s %10s %12s\n", "policy", "panels", "bal(CY)", "Mf(CY)")
	for _, v := range variants {
		bs, err := blocks.Build(plan.Sym, v.part)
		if err != nil {
			return err
		}
		cy := mapping.Cyclic(g, bs.N())
		bal := loadbal.Compute(bs, cy).Overall
		pr := sched.Build(bs, sched.Assignment{Map: cy})
		res := machine.MustSimulate(pr, cfg.Machine)
		fmt.Fprintf(w, "%-22s %8d %10.2f %12.0f\n",
			v.label, bs.N(), bal, res.Mflops(plan.Exact.Flops))
	}
	return nil
}

// IrregularBlocking re-runs the paper's mapping comparison on the
// structure-aware irregular partition (supernode amalgamation + supernode-
// aligned variable-width panels). The paper's §5 negative result was that
// varying block sizes against a structure-blind stride gains little; the
// question here is whether the load-balance story — heuristic mappings
// beating cyclic — survives when the matrix structure drives the panel
// widths instead. Balances are computed on each strategy's own block
// structure; simulated Mflops use the shared exact operation count, so the
// columns are directly comparable.
func IrregularBlocking(w io.Writer, cfg Config) error {
	p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), "BCSSTK31")
	if !ok {
		return fmt.Errorf("experiments: BCSSTK31 missing from suite")
	}
	uni, err := PlanFor(p, cfg.Scale, cfg.B)
	if err != nil {
		return err
	}
	irr, err := PlanForBlocking(p, cfg.Scale, cfg.B, blocks.StrategyIrregular, 0.125)
	if err != nil {
		return err
	}
	g := grid(cfg.P1)
	fmt.Fprintf(w, "%s, P=%d: uniform %d panels (%d supernodes) vs irregular %d panels (%d supernodes)\n",
		p.Name, g.P(), uni.BS.N(), len(uni.Sym.Snodes), irr.BS.N(), len(irr.Sym.Snodes))
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"Heuristic", "bal(unif)", "bal(irreg)", "Mf(unif)", "Mf(irreg)")
	for _, h := range mapping.AllHeuristics() {
		mu := heuristicMap(uni, g, h, h)
		mi := heuristicMap(irr, g, h, h)
		balU := loadbal.Compute(uni.BS, mu).Overall
		balI := loadbal.Compute(irr.BS, mi).Overall
		mfU := mflops(uni, uni.Simulate(uni.Assign(mu, cfg.DomainBeta), cfg.Machine))
		mfI := mflops(irr, irr.Simulate(irr.Assign(mi, cfg.DomainBeta), cfg.Machine))
		name := h.String()
		if h == mapping.CY {
			name = "Cyclic"
		}
		fmt.Fprintf(w, "%-12s %12.2f %12.2f %12.0f %12.0f\n", name, balU, balI, mfU, mfI)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PrioSched evaluates the paper's §5 conjecture that dynamic scheduling
// sensitive to task priority could reclaim the idle time left after the
// mapping heuristics are applied: it compares the data-driven FIFO receive
// queue against a critical-path-priority queue on the benchmark suite.
func PrioSched(w io.Writer, cfg Config) error {
	g := grid(cfg.P2)
	fifo := cfg.Machine
	fifo.Policy = machine.FIFO
	prio := cfg.Machine
	prio.Policy = machine.CritPath
	fmt.Fprintf(w, "%-12s %12s %12s %8s\n", "Matrix", "Mf (FIFO)", "Mf (prio)", "gain")
	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		m := plan.Map(g, mapping.ID, mapping.CY)
		a := plan.Assign(m, cfg.DomainBeta)
		mfF := mflops(plan, plan.Simulate(a, fifo))
		mfP := mflops(plan, plan.Simulate(a, prio))
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %7.0f%%\n", p.Name, mfF, mfP, pct(mfP, mfF))
	}
	return nil
}

// CommScaling reproduces the introduction's scalability claim: the
// communication volume of a 1-D column mapping grows linearly with P while
// the 2-D block mapping grows like √P.
func CommScaling(w io.Writer, cfg Config) error {
	name := "GRID300"
	p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
	if !ok {
		return fmt.Errorf("experiments: %s missing", name)
	}
	plan, err := PlanFor(p, cfg.Scale, cfg.B)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: remote bytes by mapping\n%6s %14s %14s %10s\n", name, "P", "1-D column", "2-D cyclic", "ratio")
	for _, procs := range []int{4, 16, 64, 256} {
		v1 := oracle.Column1D(plan.Sym, procs).Bytes
		v2 := sched.Build(plan.BS, sched.Assignment{Map: mapping.Cyclic(mapping.BestGrid(procs), plan.BS.N())}).TotalBytes
		ratio := 0.0
		if v2 > 0 {
			ratio = float64(v1) / float64(v2)
		}
		fmt.Fprintf(w, "%6d %14d %14d %9.1fx\n", procs, v1, v2, ratio)
	}
	return nil
}

// Concurrency supports the §5 claim that the benchmark problems "should
// [have] enough [parallelism] to keep the processors occupied": it reports
// the critical path and the average/peak width of the block-operation DAG
// under an ASAP schedule, to compare with the machine sizes used.
func Concurrency(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-12s %12s %10s %10s %16s\n",
		"Matrix", "crit path", "avg width", "max width", "enough for P=100?")
	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		prof := critpath.ComputeProfile(plan.BS, cfg.Machine.FlopRate, cfg.Machine.OpOverhead, 16)
		fmt.Fprintf(w, "%-12s %11.4fs %10.1f %10d %16v\n",
			p.Name, prof.CriticalPath, prof.AvgWidth, prof.MaxWidth, prof.AvgWidth >= float64(cfg.P2))
	}
	return nil
}

// Arbitrary quantifies the §2.4 trade-off the paper's CP mappings make: a
// fully general per-block greedy mapping achieves near-perfect overall
// balance but — lacking the Cartesian-product property that confines a
// block's consumers to one processor row and column — carries a much
// larger communication volume (up to ~70% more at paper scale). On the
// bandwidth-rich Paragon model the volume penalty stays affordable, which
// is consistent with the paper's own observation that communication was
// not its binding constraint; on bandwidth-poor machines the CP property
// is what keeps the method scalable.
func Arbitrary(w io.Writer, cfg Config) error {
	g := grid(cfg.P1)
	fmt.Fprintf(w, "%-12s %10s %10s %12s %12s %10s %10s\n",
		"Matrix", "bal(CP)", "bal(arb)", "bytes(CP)", "bytes(arb)", "Mf(CP)", "Mf(arb)")
	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		cp := plan.Map(g, mapping.ID, mapping.CY)
		arb := mapping.NewArbitraryGreedy(g.P(), plan.BS)
		balCP := loadbal.Compute(plan.BS, cp).Overall
		balAR := loadbal.OverallOf(plan.BS, g.P(), arb.Owner)
		aCP := sched.Assignment{Map: cp}
		aAR := sched.Assignment{Map: cp, Override: arb}
		volCP := sched.Build(plan.BS, aCP).TotalBytes
		volAR := sched.Build(plan.BS, aAR).TotalBytes
		mfCP := mflops(plan, plan.Simulate(aCP, cfg.Machine))
		mfAR := mflops(plan, plan.Simulate(aAR, cfg.Machine))
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %12d %12d %10.0f %10.0f\n",
			p.Name, balCP, balAR, volCP, volAR, mfCP, mfAR)
	}
	return nil
}
