package experiments

import (
	"fmt"
	"io"

	"blockfanout/internal/gen"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
)

// Faults measures how the paper's mappings degrade under a fail-stop
// fault: one processor dies 30% of the way into the fault-free makespan
// and a buddy replays its lost fan-out state after a recovery delay. The
// table reports, per matrix, the fault-free simulated time and the
// percentage degradation for the cyclic mapping and for the paper's
// heuristic mapping. The interesting question is whether the heuristics'
// tighter load balance survives a recovery that dumps a dead processor's
// whole remaining load onto one buddy.
func Faults(w io.Writer, cfg Config) error {
	type mappingCase struct {
		name   string
		rh, ch mapping.Heuristic
	}
	cases := []mappingCase{
		{"cyclic", mapping.CY, mapping.CY},
		{"heuristic", mapping.ID, mapping.CY},
	}

	fmt.Fprintf(w, "single fail-stop at 0.3×makespan, buddy recovery, P=%d\n", cfg.P1)
	fmt.Fprintf(w, "%-12s", "Matrix")
	for _, c := range cases {
		fmt.Fprintf(w, " %12s %10s", c.name+" (s)", "+fail %")
	}
	fmt.Fprintln(w)

	for _, p := range gen.Table1Suite(cfg.Scale) {
		plan, err := PlanFor(p, cfg.Scale, cfg.B)
		if err != nil {
			return err
		}
		g := grid(cfg.P1)
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, c := range cases {
			a := plan.Assign(plan.Map(g, c.rh, c.ch), cfg.DomainBeta)
			base := plan.Simulate(a, cfg.Machine)

			mc := cfg.Machine
			mc.Faults = &machine.FaultPlan{
				Seed: 1,
				Failures: []machine.NodeFailure{
					{Proc: int32(cfg.P1 / 2), Time: base.Time * 0.3},
				},
				RecoveryDelay: 1e-3,
			}
			if err := mc.Validate(g.P()); err != nil {
				return fmt.Errorf("experiments: faults: %s/%s: %w", p.Name, c.name, err)
			}
			faulted := plan.Simulate(a, mc)
			fmt.Fprintf(w, " %12.4f %10.1f", base.Time, pct(faulted.Time, base.Time))
		}
		fmt.Fprintln(w)
	}
	return nil
}
