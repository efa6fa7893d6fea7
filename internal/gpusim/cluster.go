package gpusim

import (
	"math"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/isa"
)

// epochAccum accumulates raw event counts for the current epoch of one
// cluster. It is reset at every epoch boundary.
type epochAccum struct {
	opCounts     [isa.NumOps]int64
	instructions int64
	cycles       int64
	activeCycles int64

	stallMemLoad   int64 // waiting for global-load data (MH)
	stallMemOther  int64 // LSU busy / MSHR full / store-queue full (MH\L)
	stallCompute   int64 // waiting on ALU/SFU/shared results
	stallControl   int64 // branch pipeline refill
	readyNotIssued int64 // eligible but lost issue-width arbitration
	dvfsStall      int64 // cycles lost to IVR transitions

	l1ReadHits      int64
	l1ReadMisses    int64
	l1WriteAccesses int64
	l2Accesses      int64
	l2Hits          int64
	l2Misses        int64
	dramLines       int64
	sharedLoads     int64
	branches        int64
}

// cluster is one SM cluster: a set of warps, a private L1, execution-unit
// issue limits, and its own clock domain.
type cluster struct {
	id  int
	cfg *Config

	domain *clockdomain.Domain
	warps  []warp
	l1     *cache

	nowPs int64
	rrPtr int
	// greedyWarp is the last successfully issuing warp (GTO policy).
	greedyWarp int

	// Completion times of outstanding load misses / queued stores. Entries
	// that completed stay until a full-looking queue is drained.
	outstandingLoads  []int64
	outstandingStores []int64

	finishedWarps int
	done          bool
	lastFinishPs  int64

	acc epochAccum
	// epochLevel is the OP level in force for the current epoch (levels
	// change only at epoch boundaries).
	epochLevel int

	// lineBuf is scratch for address generation, reused across cycles.
	lineBuf []uint64
}

func newCluster(id int, cfg *Config, kernel *isa.Kernel) *cluster {
	c := &cluster{
		id:      id,
		cfg:     cfg,
		domain:  clockdomain.NewDomain(cfg.OPs, cfg.IVR),
		l1:      newCache(cfg.L1),
		lineBuf: make([]uint64, 0, 32),
	}
	c.epochLevel = c.domain.Level()
	c.warps = make([]warp, kernel.WarpsPerCluster)
	for i := range c.warps {
		c.warps[i] = warp{
			prog: &kernel.Programs[i%len(kernel.Programs)],
			id:   id*kernel.WarpsPerCluster + i,
		}
	}
	return c
}

// queueFull reports whether queue *q has no free slot under limit at
// nowPs, dropping completed entries when it looks full. Every entry
// completes after the cycle that queued it, so this gives the verdict of
// a queue drained at every cycle.
func queueFull(q *[]int64, limit int, nowPs int64) bool {
	if len(*q) < limit {
		return false
	}
	out := (*q)[:0]
	for _, t := range *q {
		if t > nowPs {
			out = append(out, t)
		}
	}
	*q = out
	return len(out) >= limit
}

// stallReason classifies why a warp could not issue this cycle.
type stallReason uint8

const (
	stallNone stallReason = iota
	stallMemLoadR
	stallMemOtherR
	stallComputeR
	stallControlR
	stallArbR
)

// tryIssue checks whether warp w can issue at nowPs given the remaining
// per-cycle unit budgets, and if so performs the issue (updating the
// scoreboard, caches, and memory system). It returns the stall reason on
// failure and stallNone on success. idleAt relies on the order of the
// checks.
func (c *cluster) tryIssue(w *warp, mem *memSystem, nowPs int64, aluLeft, sfuLeft, lsuLeft *int) stallReason {
	if nowPs < w.nextEligiblePs {
		return stallControlR
	}
	ins := w.current()

	// Scoreboard: RAW on sources, WAW on destination.
	for _, r := range [...]isa.Reg{ins.SrcA, ins.SrcB, ins.Dst} {
		if r == 0 {
			continue
		}
		if w.regReadyPs[r] > nowPs {
			if w.regFromLoad[r] {
				return stallMemLoadR
			}
			return stallComputeR
		}
	}

	period := c.domain.PeriodPs()
	cfg := c.cfg

	switch ins.Op {
	case isa.OpIAlu, isa.OpFAlu:
		if *aluLeft == 0 {
			return stallComputeR
		}
		*aluLeft--
		lat := cfg.IAluLatency
		if ins.Op == isa.OpFAlu {
			lat = cfg.FAluLatency
		}
		c.writeReg(w, ins.Dst, nowPs+int64(lat)*period, false)

	case isa.OpSFU:
		if *sfuLeft == 0 {
			return stallComputeR
		}
		*sfuLeft--
		c.writeReg(w, ins.Dst, nowPs+int64(cfg.SFULatency)*period, false)

	case isa.OpLoadShared:
		if *lsuLeft == 0 {
			return stallMemOtherR
		}
		*lsuLeft--
		c.writeReg(w, ins.Dst, nowPs+int64(cfg.SharedLatency)*period, false)
		c.acc.sharedLoads++

	case isa.OpBranch:
		w.nextEligiblePs = nowPs + int64(cfg.BranchLatency)*period
		c.acc.branches++

	case isa.OpLoadGlobal:
		if *lsuLeft == 0 || queueFull(&c.outstandingLoads, cfg.MSHRs, nowPs) {
			return stallMemOtherR
		}
		*lsuLeft--
		done := c.accessLoad(w, ins, mem, nowPs, period)
		c.writeReg(w, ins.Dst, done, true)
		c.outstandingLoads = append(c.outstandingLoads, done)

	case isa.OpStoreGlobal:
		if *lsuLeft == 0 || queueFull(&c.outstandingStores, cfg.StoreQueue, nowPs) {
			return stallMemOtherR
		}
		*lsuLeft--
		done := c.accessStore(w, ins, mem, nowPs)
		c.outstandingStores = append(c.outstandingStores, done)
	}

	c.acc.opCounts[ins.Op]++
	c.acc.instructions++
	w.issued++
	w.advance()
	if w.finished {
		c.finishedWarps++
		if nowPs > c.lastFinishPs {
			c.lastFinishPs = nowPs
		}
	}
	return stallNone
}

// writeReg records a pending register write in the scoreboard.
func (c *cluster) writeReg(w *warp, r isa.Reg, readyPs int64, fromLoad bool) {
	if r == 0 {
		return
	}
	w.regReadyPs[r] = readyPs
	w.regFromLoad[r] = fromLoad
}

// accessLoad walks the load's cache lines through L1 (and L2/DRAM on
// misses) and returns the load's completion time.
func (c *cluster) accessLoad(w *warp, ins *isa.Instruction, mem *memSystem, nowPs int64, period int64) int64 {
	c.lineBuf = lineAddrs(c.lineBuf[:0], &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	hitLat := nowPs + int64(c.cfg.L1HitCycles)*period
	done := hitLat
	for _, addr := range c.lineBuf {
		if c.l1.access(addr) {
			c.acc.l1ReadHits++
			continue
		}
		c.acc.l1ReadMisses++
		t, l2Hit, dram := mem.readLine(addr, hitLat)
		c.acc.l2Accesses++
		if l2Hit {
			c.acc.l2Hits++
		} else {
			c.acc.l2Misses++
		}
		if dram {
			c.acc.dramLines++
		}
		if t > done {
			done = t
		}
	}
	return done
}

// accessStore issues a write-through store (no L1 allocate) and returns
// when the memory system has accepted it.
func (c *cluster) accessStore(w *warp, ins *isa.Instruction, mem *memSystem, nowPs int64) int64 {
	c.lineBuf = lineAddrs(c.lineBuf[:0], &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	done := nowPs
	for _, addr := range c.lineBuf {
		c.acc.l1WriteAccesses++
		t, l2Hit, dram := mem.writeLine(addr, nowPs)
		c.acc.l2Accesses++
		if l2Hit {
			c.acc.l2Hits++
		} else {
			c.acc.l2Misses++
		}
		if dram {
			c.acc.dramLines++
		}
		if t > done {
			done = t
		}
	}
	return done
}

// step executes one clock cycle of the cluster at its current time and
// advances the cluster clock by one period. It reports whether the cycle
// issued nothing, for fastForward to repeat.
func (c *cluster) step(mem *memSystem) (idle bool) {
	nowPs := c.nowPs
	c.acc.cycles++

	if c.domain.Stalled(nowPs) {
		c.acc.dvfsStall++
		c.nowPs += c.domain.PeriodPs()
		return true
	}

	aluLeft := c.cfg.ALUUnits
	sfuLeft := c.cfg.SFUUnits
	lsuLeft := c.cfg.LSUUnits
	issueLeft := c.cfg.IssueWidth

	n := len(c.warps)
	issuedAny := false
	for i := 0; i < n; i++ {
		if issueLeft == 0 {
			c.acc.readyNotIssued += int64(c.unfinishedFrom(i))
			break
		}
		idx := c.candidate(i)
		w := &c.warps[idx]
		if w.finished {
			continue
		}
		reason := c.tryIssue(w, mem, nowPs, &aluLeft, &sfuLeft, &lsuLeft)
		switch reason {
		case stallNone:
			issueLeft--
			issuedAny = true
			c.greedyWarp = idx
		case stallMemLoadR:
			c.acc.stallMemLoad++
		case stallMemOtherR:
			c.acc.stallMemOther++
		case stallComputeR:
			c.acc.stallCompute++
		case stallControlR:
			c.acc.stallControl++
		}
	}
	if issuedAny {
		c.acc.activeCycles++
		c.rrPtr = (c.rrPtr + 1) % n
	}
	if c.finishedWarps == n {
		c.done = true
	}
	c.nowPs += c.domain.PeriodPs()
	return !issuedAny
}

// candidate returns the warp the scheduler tries i-th this cycle. LRR
// rotates the start position; GTO tries the greedy warp first and then
// the oldest (lowest-index) warps. Either way the order is a permutation
// of the warps while rrPtr and greedyWarp hold still. An issue moves
// greedyWarp mid-scan, and the rest of the scan follows the new order.
func (c *cluster) candidate(i int) int {
	if c.cfg.Scheduler == SchedGTO {
		switch {
		case i == 0:
			return c.greedyWarp
		case i <= c.greedyWarp:
			return i - 1
		}
		return i
	}
	idx := c.rrPtr + i
	if idx >= len(c.warps) {
		idx -= len(c.warps)
	}
	return idx
}

// unfinishedFrom counts the unfinished warps among candidates i and on:
// the warps that lose issue-width arbitration once the width is spent,
// counted so occupancy pressure is visible. No later issue moves the
// order, which is then a permutation, so they are the unfinished warps
// less those among the first i candidates.
func (c *cluster) unfinishedFrom(i int) int {
	rest := len(c.warps) - c.finishedWarps
	for k := 0; k < i; k++ {
		if !c.warps[c.candidate(k)].finished {
			rest--
		}
	}
	return rest
}

// idleCycle is one cycle that issued nothing: the stall tallies it added
// and wakePs, the earliest time at which a later cycle could go
// differently. Every tick before wakePs repeats it exactly.
type idleCycle struct {
	wakePs int64

	stallMemLoad  int64
	stallMemOther int64
	stallCompute  int64
	stallControl  int64
	dvfsStall     int64
}

// idleAt rebuilds the cycle that issued nothing at nowPs from the state
// it left. An idle cycle writes only cluster-private counters, and each
// unfinished warp stays blocked by the first check of tryIssue that
// failed, with the same stall reason, until that check's threshold
// passes: its branch refill (nextEligiblePs), or the scoreboard release
// of the first pending register of its current instruction. A warp that
// passed both was refused an MSHR (global load) or a store-queue slot
// (store): every unit is free in an idle cycle, so nothing else refuses.
// The refusal drained that queue of completed entries, so the slot frees
// when the earliest entry left completes. With no threshold left nothing
// will change, and the wake time is never.
// The checks mirror tryIssue's order; a change there must change this.
func (c *cluster) idleAt(nowPs int64) idleCycle {
	if c.domain.Stalled(nowPs) {
		return idleCycle{wakePs: c.domain.StallUntilPs(), dvfsStall: 1}
	}
	ic := idleCycle{wakePs: math.MaxInt64}
	var loadSlot, storeSlot bool
warps:
	for i := range c.warps {
		w := &c.warps[i]
		if w.finished {
			continue
		}
		if w.nextEligiblePs > nowPs {
			ic.stallControl++
			ic.wakePs = min(ic.wakePs, w.nextEligiblePs)
			continue
		}
		ins := w.current()
		for _, r := range [...]isa.Reg{ins.SrcA, ins.SrcB, ins.Dst} {
			if t := w.regReadyPs[r]; r != 0 && t > nowPs {
				if w.regFromLoad[r] {
					ic.stallMemLoad++
				} else {
					ic.stallCompute++
				}
				ic.wakePs = min(ic.wakePs, t)
				continue warps
			}
		}
		ic.stallMemOther++
		if ins.Op == isa.OpLoadGlobal {
			loadSlot = true
		} else {
			storeSlot = true
		}
	}
	if loadSlot {
		for _, t := range c.outstandingLoads {
			ic.wakePs = min(ic.wakePs, t)
		}
	}
	if storeSlot {
		for _, t := range c.outstandingStores {
			ic.wakePs = min(ic.wakePs, t)
		}
	}
	return ic
}

// fastForward follows a step that issued nothing: it repeats that cycle
// for every further tick before both its wake time and limitPs, adding
// its counters k times at once. Only the idle path pays for it; a cycle
// that issued goes on at cycle rate.
func (c *cluster) fastForward(limitPs int64) {
	period := c.domain.PeriodPs()
	idle := c.idleAt(c.nowPs - period)
	until := min(idle.wakePs, limitPs)
	if c.nowPs >= until {
		return
	}
	k := (until - c.nowPs + period - 1) / period
	c.nowPs += k * period
	c.acc.cycles += k
	c.acc.stallMemLoad += k * idle.stallMemLoad
	c.acc.stallMemOther += k * idle.stallMemOther
	c.acc.stallCompute += k * idle.stallCompute
	c.acc.stallControl += k * idle.stallControl
	c.acc.dvfsStall += k * idle.dvfsStall
}

// clone deep-copies the cluster for simulator snapshots.
func (c *cluster) clone(cfg *Config) *cluster {
	cp := *c
	cp.cfg = cfg
	cp.warps = append([]warp(nil), c.warps...)
	cp.l1 = c.l1.clone()
	cp.outstandingLoads = append([]int64(nil), c.outstandingLoads...)
	cp.outstandingStores = append([]int64(nil), c.outstandingStores...)
	cp.lineBuf = make([]uint64, 0, cap(c.lineBuf))
	// Domain is a value type over an immutable table; a shallow copy is a
	// correct deep copy.
	d := *c.domain
	cp.domain = &d
	return &cp
}
