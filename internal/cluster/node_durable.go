package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/store"
)

// This file is the node's durability and self-defense layer: write-behind
// held-block checkpoints, snapshot-seeded rejoin, and the stall watchdog
// that turns a silent wedge (dropped peer frames, a partitioned sender)
// into a transient epoch failure the gateway can retry.

// snapshotWriter is the single goroutine draining the node's write-behind
// checkpoint queue; epoch completion never waits on the filesystem.
func (n *Node) snapshotWriter() {
	defer n.wg.Done()
	put := func(bs *store.BlockSnapshot) {
		if err := n.st.PutBlocks(bs); err != nil {
			n.snapErrors.Add(1)
			n.cfg.Logf("cluster node %s: job %s: block snapshot write: %v", n.cfg.ID, bs.JobID, err)
		}
	}
	for {
		select {
		case bs := <-n.snapCh:
			put(bs)
		case <-n.ctx.Done():
			for {
				select {
				case bs := <-n.snapCh:
					put(bs)
				default:
					return
				}
			}
		}
	}
}

// saveBlocks queues a checkpoint of the blocks this node computed under
// sj's mapping. Write-behind: a full queue drops the checkpoint (the next
// successful epoch re-cuts it) rather than stalling the Done report.
func (n *Node) saveBlocks(j *nodeJob, sj *wire.StartJob) {
	if n.st == nil {
		return
	}
	j.mu.Lock()
	if j.runID != sj.RunID || j.epoch != sj.Epoch {
		j.mu.Unlock()
		return // a newer epoch started; its own completion will checkpoint
	}
	bs := &store.BlockSnapshot{
		JobID: j.id, RunID: j.runID, Epoch: j.epoch,
		ValSum: j.valSum,
	}
	for id := int32(0); int(id) < j.pr.NBlocks; id++ {
		if !j.local[id] || !j.haveData[id] {
			continue
		}
		col, bi := j.pr.ColOf[id], j.pr.IdxOf[id]
		src := j.nf.Data[col][bi]
		bs.IDs = append(bs.IDs, uint32(id))
		bs.Blocks = append(bs.Blocks, append([]float64(nil), src...))
	}
	j.mu.Unlock()
	if len(bs.IDs) == 0 {
		return
	}
	select {
	case n.snapCh <- bs:
	default:
		n.cfg.Logf("cluster node %s: job %s: block snapshot dropped (queue full)", n.cfg.ID, j.id)
	}
}

// restoreBlocksLocked seeds a fresh run from this node's held-block
// snapshot when one exists and fingerprints the same numerics. The value
// checksum, not the run ID, is the correctness guard: a restarted node
// gets a fresh run ID for the same values, while a refactor with new
// values must never be seeded from old blocks. Caller holds j.mu, has
// just Reloaded the run's values and set j.valSum, and n.st is open.
func (j *nodeJob) restoreBlocksLocked(n *Node) {
	bs, err := n.st.GetBlocks(j.id)
	if err != nil || bs == nil {
		return // missing or quarantined: cold start
	}
	if bs.ValSum != j.valSum || len(bs.IDs) != len(bs.Blocks) {
		return
	}
	restored := 0
	for k, id := range bs.IDs {
		if int(id) >= j.pr.NBlocks || j.haveData[id] {
			continue
		}
		col, bi := j.pr.ColOf[id], j.pr.IdxOf[id]
		dst := j.nf.Data[col][bi]
		if len(bs.Blocks[k]) != len(dst) {
			continue
		}
		copy(dst, bs.Blocks[k])
		j.haveData[id] = true
		j.nHave++
		restored++
	}
	if restored > 0 {
		n.restored.Add(uint64(restored))
		n.cfg.Logf("cluster node %s: job %s: restored %d held blocks from snapshot", n.cfg.ID, j.id, restored)
	}
}

// startStallWatch cancels the epoch when job progress (blocks held, from
// local completions and peer deliveries alike) freezes for StallTimeout,
// and returns the flag runEpoch checks to turn that cancellation into a
// transient Done instead of a silent abort. Nil when disabled.
func (n *Node) startStallWatch(ctx context.Context, cancel context.CancelFunc, j *nodeJob) *atomic.Bool {
	if n.cfg.StallTimeout <= 0 {
		return nil
	}
	flag := &atomic.Bool{}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		tick := n.cfg.StallTimeout / 4
		if tick <= 0 {
			tick = n.cfg.StallTimeout
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last, lastAt := -1, time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				j.mu.Lock()
				have, total := j.nHave, j.pr.NBlocks
				j.mu.Unlock()
				if have >= total {
					return // complete; nothing left to stall on
				}
				if have != last {
					last, lastAt = have, time.Now()
					continue
				}
				if time.Since(lastAt) >= n.cfg.StallTimeout {
					flag.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return flag
}
