package experiments

import (
	"fmt"
	"io"
	"time"

	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/oracle"
	"blockfanout/internal/sched"
)

// Organizations compares the wall-clock time of the four sequential
// factorization organizations implemented in this repository — up-looking
// (row by row), left-looking supernodal, multifrontal, and the
// right-looking blocked method the paper parallelizes — on the same
// matrices. This reproduces, on today's hardware, the comparison of the
// authors' earlier report [Rothberg & Gupta 1991]: the supernodal methods
// (with their dense inner loops) dominate the column-wise method as
// supernodes grow.
func Organizations(w io.Writer, cfg Config) error {
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"Matrix", "up-looking", "left-looking", "multifrontal", "right-block")
	for _, name := range []string{"GRID300", "CUBE30", "BCSSTK31"} {
		p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
		if !ok {
			return fmt.Errorf("experiments: %s missing", name)
		}
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		timeIt := func(f func() error) (time.Duration, error) {
			start := time.Now()
			err := f()
			return time.Since(start), err
		}
		tUp, err := timeIt(func() error {
			_, err := oracle.UpLooking(plan.PA)
			return err
		})
		if err != nil {
			return err
		}
		tLL, err := timeIt(func() error {
			_, err := oracle.LeftLooking(plan.PA, plan.Sym)
			return err
		})
		if err != nil {
			return err
		}
		tMF, err := timeIt(func() error {
			_, err := oracle.Multifrontal(plan.PA, plan.Sym)
			return err
		})
		if err != nil {
			return err
		}
		tRB, err := timeIt(func() error {
			_, err := plan.FactorSequential()
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %12v %12v %12v %12v\n",
			p.Name, tUp.Round(time.Microsecond), tLL.Round(time.Microsecond),
			tMF.Round(time.Microsecond), tRB.Round(time.Microsecond))
	}
	return nil
}

// ColfanMessages compares the real executed message counts of the
// traditional 1-D column fan-out method against the 2-D block fan-out on
// the same matrix across machine sizes — the intro's communication claim
// measured on actual executions rather than the analytic model.
func ColfanMessages(w io.Writer, cfg Config) error {
	name := "GRID150"
	p, ok := gen.ByName(gen.Table1Suite(cfg.Scale), name)
	if !ok {
		return fmt.Errorf("experiments: %s missing", name)
	}
	plan, err := PlanFor(p, cfg.Scale, cfg.B)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: executed remote messages/bytes by method\n", name)
	fmt.Fprintf(w, "%6s %12s %14s %12s %14s\n", "P", "1-D msgs", "1-D bytes", "2-D msgs", "2-D bytes")
	for _, procs := range []int{4, 16, 64} {
		_, vol, err := oracle.ColumnFanOut(plan.PA, plan.Sym, procs)
		if err != nil {
			return err
		}
		g := mapping.BestGrid(procs)
		pr := sched.Build(plan.BS, sched.Assignment{Map: mapping.Cyclic(g, plan.BS.N())})
		fmt.Fprintf(w, "%6d %12d %14d %12d %14d\n",
			procs, vol.Messages, vol.Bytes, pr.TotalMessages, pr.TotalBytes)
	}
	return nil
}
