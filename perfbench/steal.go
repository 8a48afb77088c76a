package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuStat is the aggregate CPU line of /proc/stat: steal and non-idle
// clock ticks over all CPUs since boot.
type cpuStat struct {
	steal, busy uint64
	ok          bool
}

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, fld := range fields[1:9] { // user … steal
		v, err := strconv.ParseUint(fld, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			st.steal = v
			st.busy += v
		default:
			st.busy += v
		}
	}
	st.ok = true
	return st
}

// stealKeep is the share of the non-idle CPU time between two readings
// that the hypervisor did not steal: 1 − steal ÷ (non-idle time, steal
// included). A phase that keeps its CPUs busy and loses share s of their
// time to other guests runs 1/(1 − s) times longer, so multiplying its wall
// time by stealKeep removes the time the program could not run at all.
// Idle CPUs accrue no steal, which is why idle time is left out. It is 1
// where /proc/stat is unreadable.
func stealKeep(a, b cpuStat) float64 {
	if !a.ok || !b.ok || b.busy <= a.busy || b.steal < a.steal {
		return 1
	}
	return 1 - float64(b.steal-a.steal)/float64(b.busy-a.busy)
}
