package uarch

import "math/bits"

// --- issue scheduling: wakeup lists and the ready bitmap -----------------
//
// The issue queue is a ROB-indexed bitmap (iqMask) plus a count (iqCnt):
// a ROB entry's bit is set from rename until it issues or is squashed.
// Issue never scans it. Instead, rename registers each not-yet-ready
// source of a new entry on its physical register's waiter list and
// stores the number of such sources in uop.pending; writeback, after
// marking a register ready, drains its list and decrements each waiter's
// count. An entry whose count reaches zero sets its bit in readyMask,
// and issue walks only readyMask, oldest first (from robHead with
// wrap-around, the age order the IQ has always been scanned in).
//
// This is exact, not an approximation of the scan, because of one
// invariant: a mapped physical register's readiness only goes false →
// true while it is mapped. Rename clears the ready bit of a register it
// allocates, and no waiting µop can read that register — a freed
// register's readers have all committed (commit frees a mapping only
// when the overwriting µop retires) or been squashed (squash frees only
// the squashed µops' destinations). So a source that is ready at rename
// stays ready, a pending one turns ready exactly once, at its
// producer's writeback, and each entry's count is exact.
//
// Waiter lists are not pruned at squash time. An entry left behind by a
// squashed µop is recognised when drained — its ROB slot is squashed, or
// was reused by a µop with a different sequence number — and skipped.
// A list is emptied when its register is allocated again: every waiter
// it then holds is stale, since a free register has no live readers.
//
// iqMask and iqCnt are the queue's state. readyMask, the waiter lists
// and the pending counts are derived from them and the PRF ready flags,
// so they are never copied or serialized: init and copyFrom re-derive
// them through rebuildWakeup, and a checkpoint snapshot (taken or
// decoded), which is only ever copied from, holds none (dropWakeup).

// waiter is one pending source read registered on a physical register:
// the reading µop's ROB index and sequence number (the latter guards
// against the slot having been squashed and reused since).
type waiter struct {
	idx int32
	seq uint64
}

// hasBit / setBit / clearBit address ROB-indexed bitmaps.
func hasBit(m []uint64, i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }
func setBit(m []uint64, i int)      { m[i>>6] |= 1 << (i & 63) }
func clearBit(m []uint64, i int)    { m[i>>6] &^= 1 << (i & 63) }

// srcReady reports whether a renamed source's physical register holds
// its final value.
func (c *Core) srcReady(s rsrc) bool {
	switch s.cls {
	case clsInt:
		return c.intReady[s.phys]
	case clsFP:
		return c.fpReady[s.phys]
	}
	return c.flagRdy[s.phys]
}

// waiters returns the waiter list of a source's physical register.
func (c *Core) waiters(cls uint8, phys uint16) *[]waiter {
	switch cls {
	case clsInt:
		return &c.intWait[phys]
	case clsFP:
		return &c.fpWait[phys]
	}
	return &c.flagWait[phys]
}

// enqueueIQ inserts the µop at ROB index idx into the issue queue.
func (c *Core) enqueueIQ(idx int) {
	setBit(c.iqMask, idx)
	c.iqCnt++
	c.registerWaits(idx)
}

// registerWaits puts queued µop idx on the waiter list of every source
// not yet ready and counts them; with none it is ready to issue.
func (c *Core) registerWaits(idx int) {
	u := &c.rob[idx]
	u.pending = 0
	for _, s := range u.srcs {
		if !c.srcReady(s) {
			w := c.waiters(s.cls, s.phys)
			*w = append(*w, waiter{idx: int32(idx), seq: u.seq})
			u.pending++
		}
	}
	if u.pending == 0 {
		setBit(c.readyMask, idx)
	}
}

// dequeueIQ removes ROB index idx from the issue queue (it issued or was
// squashed).
func (c *Core) dequeueIQ(idx int) {
	clearBit(c.iqMask, idx)
	clearBit(c.readyMask, idx)
	c.iqCnt--
}

// wake drains the waiter list of a register that just became ready.
func (c *Core) wake(w *[]waiter) {
	for _, wt := range *w {
		u := &c.rob[wt.idx]
		if u.seq != wt.seq || u.squashed || u.st != uWaiting {
			continue // stale: the reader was squashed (slot maybe reused)
		}
		u.pending--
		if u.pending == 0 {
			setBit(c.readyMask, int(wt.idx))
		}
	}
	*w = (*w)[:0]
}

// nextBit returns the lowest set index of bitmap m in [from, end), or -1.
func nextBit(m []uint64, from, end int) int {
	for w := from >> 6; w<<6 < end; w++ {
		word := m[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			if i := w<<6 | bits.TrailingZeros64(word); i < end {
				return i
			}
			return -1
		}
	}
	return -1
}

// iqOrder appends the issue queue's ROB indices in age order: from
// robHead to the end of the ROB, then from slot 0 up to robHead.
func (c *Core) iqOrder(dst []int) []int {
	for pass, from, end := 0, c.robHead, len(c.rob); pass < 2; pass, from, end = pass+1, 0, c.robHead {
		for i := nextBit(c.iqMask, from, end); i >= 0; i = nextBit(c.iqMask, i+1, end) {
			dst = append(dst, i)
		}
	}
	return dst
}

// resetWaiters sizes a waiter-list table to n registers with every list
// empty, keeping the lists' capacity.
func resetWaiters(ws [][]waiter, n int) [][]waiter {
	ws = grow(ws, n)
	for i := range ws {
		ws[i] = ws[i][:0]
	}
	return ws
}

// rebuildWakeup re-derives readyMask, the waiter lists and every queued
// µop's pending count from iqMask and the PRF ready flags.
func (c *Core) rebuildWakeup() {
	c.readyMask = grow(c.readyMask, len(c.iqMask))
	clear(c.readyMask)
	c.intWait = resetWaiters(c.intWait, len(c.intReady))
	c.fpWait = resetWaiters(c.fpWait, len(c.fpReady))
	c.flagWait = resetWaiters(c.flagWait, len(c.flagRdy))
	for i := nextBit(c.iqMask, 0, len(c.rob)); i >= 0; i = nextBit(c.iqMask, i+1, len(c.rob)) {
		c.registerWaits(i)
	}
}

// dropWakeup releases the derived scheduler state of a checkpoint
// snapshot: it never issues, and the core restored from it re-derives
// the state in copyFrom.
func (c *Core) dropWakeup() {
	c.readyMask, c.intWait, c.fpWait, c.flagWait = nil, nil, nil, nil
}
