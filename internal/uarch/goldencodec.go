package uarch

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"harpocrates/internal/ace"
	"harpocrates/internal/arch"
	"harpocrates/internal/coverage"
	"harpocrates/internal/isa"
)

// Golden artifact bundle and its stable HXGA codec.
//
// A fault-injection campaign's expensive fixed cost is the instrumented
// golden run: the naive-loop execution that produces the golden Result
// (with ACE interval logs), the fast-forward checkpoints and the delta
// trajectory every faulty run rides on. GoldenArtifacts packages those
// outputs as one shareable, serializable value so the inject package's
// golden cache can compute them once per (program, config) and reuse
// them across structures, shards and worker restarts.
//
// Serializing a Checkpoint means serializing a full Core snapshot. The
// codec's field inventory deliberately mirrors Core.copyFrom — the
// authoritative list of what constitutes dynamic simulator state — and
// the same exclusions apply: run-loop scratch (progressed, wbReadyAt,
// skipped), delta arming (re-derived by RestoreFrom), the issue
// scheduler's wakeup state (re-derived by rebuildWakeup) and per-run
// instrumentation (trackers, recorders, trace sinks) are not state.
// ROB entries outside the live window ∪ in-flight set hold dead values
// that rename always resets before reuse, exactly as pooled-core copies
// carry them; only the live subset is serialized. The memory digest is
// recomputed lazily on the decode side — it is content-pure, so it
// matches the encode side's forced-live digest bit for bit.
//
// Cacheable golden runs never enable ACE trackers or IBR tracking (the
// inject cacheability gate refuses such configs), so µop ACE/IBR event
// buffers are empty by construction; the encoder refuses non-empty ones
// rather than silently dropping state.

// GoldenArtifacts bundles everything a campaign derives from one golden
// instrumented run. Checkpoints are in ascending cycle order; Trajectory
// and the Result's interval recorders may be shared read-only across any
// number of concurrent faulty runs.
type GoldenArtifacts struct {
	Result      *Result
	Checkpoints []*Checkpoint
	Trajectory  *DeltaTrajectory
}

// Release returns every pooled resource the bundle references (interval
// recorders, checkpoint cores, the trajectory) and clears the fields.
// Idempotent and nil-safe.
func (ga *GoldenArtifacts) Release() {
	if ga == nil {
		return
	}
	if ga.Result != nil {
		ace.ReleaseIntervalRecorder(ga.Result.IRFIntervals)
		ace.ReleaseIntervalRecorder(ga.Result.FPRFIntervals)
		ace.ReleaseIntervalRecorder(ga.Result.L1DIntervals)
		ga.Result.IRFIntervals = nil
		ga.Result.FPRFIntervals = nil
		ga.Result.L1DIntervals = nil
	}
	for _, ck := range ga.Checkpoints {
		ck.Release()
	}
	ga.Checkpoints = nil
	ReleaseDeltaTrajectory(ga.Trajectory)
	ga.Trajectory = nil
}

// ApproxBytes estimates the bundle's in-memory footprint, dominated by
// the checkpoint cores' memory images, cache SRAM and register files —
// the number the golden cache's bytes gauge and eviction sizing use.
func (ga *GoldenArtifacts) ApproxBytes() int {
	if ga == nil {
		return 0
	}
	n := 0
	if r := ga.Result; r != nil {
		n += 256
		n += r.IRFIntervals.ApproxBytes()
		n += r.FPRFIntervals.ApproxBytes()
		n += r.L1DIntervals.ApproxBytes()
	}
	if t := ga.Trajectory; t != nil {
		n += 32 * cap(t.Points)
	}
	for _, ck := range ga.Checkpoints {
		if ck == nil || ck.core == nil {
			continue
		}
		cp := ck.core
		for _, reg := range cp.mem.Regions() {
			n += len(reg.Data)
		}
		n += len(cp.cache.data) + 48*len(cp.cache.lines)
		if cp.cache.l2 != nil {
			n += 17 * len(cp.cache.l2.tag)
		}
		n += 8*len(cp.intPRF) + 16*len(cp.fpPRF) + len(cp.flagPRF)
		n += 160 * len(cp.rob)
		n += len(cp.bp.table)
	}
	return n
}

// HXGA container framing.
const (
	goldenMagic   uint32 = 0x41475848 // "HXGA" little-endian
	goldenVersion uint32 = 2

	// maxGoldenElems bounds any decoded slice length (checkpoints,
	// regions, queue lengths); generous but refuses corrupt frames.
	maxGoldenElems = 1 << 28
)

// scrubGoldenConfig clears the per-run instrumentation flags from a
// checkpoint core's config before it travels: a restored core never
// carries trackers or recorders (copyFrom sets them nil), so the
// decode-side init must not draw them.
func scrubGoldenConfig(cfg Config) Config {
	cfg.TrackIRF = false
	cfg.TrackL1D = false
	cfg.TrackFPRF = false
	cfg.TrackIBR = false
	cfg.RecordIRFIntervals = false
	cfg.RecordFPRFIntervals = false
	cfg.RecordL1DIntervals = false
	return cfg
}

// --- encoder ----------------------------------------------------------

type gaEnc struct{ buf []byte }

func (e *gaEnc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *gaEnc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *gaEnc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *gaEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *gaEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *gaEnc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *gaEnc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *gaEnc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *gaEnc) inst(in *isa.Inst) {
	e.u16(uint16(in.V))
	e.u8(in.NOps)
	for i := range in.Ops {
		op := &in.Ops[i]
		e.u8(uint8(op.Kind))
		e.u8(uint8(op.Reg))
		e.u8(uint8(op.X))
		e.i64(op.Imm)
		e.u8(uint8(op.Mem.Base))
		e.boolean(op.Mem.HasIndex)
		e.u8(uint8(op.Mem.Index))
		e.u8(op.Mem.Scale)
		e.u32(uint32(op.Mem.Disp))
	}
}

func (e *gaEnc) crash(err *arch.CrashError) {
	if err == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u8(uint8(err.Kind))
	e.u64(err.Addr)
	e.i64(int64(err.PC))
	e.u8(uint8(err.Exc))
}

func (e *gaEnc) recorder(r *ace.IntervalRecorder) {
	if r == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.buf = ace.AppendIntervalRecorder(e.buf, r)
}

func (e *gaEnc) result(r *Result) {
	e.u64(r.Cycles)
	e.u64(r.Instructions)
	e.f64(r.IRFVuln)
	e.f64(r.L1DVuln)
	e.f64(r.FPRFVuln)
	for s := 0; s < int(coverage.NumStructures); s++ {
		e.f64(r.IBR[s])
		e.u64(r.UnitUses[s])
	}
	e.crash(r.Crash)
	e.u8(uint8(r.Trap))
	e.boolean(r.TimedOut)
	e.u64(r.Signature)
	e.boolean(r.Reconverged)
	e.u64(r.Branches)
	e.u64(r.Mispredicts)
	e.u64(r.Flushes)
	e.u64(r.CacheHits)
	e.u64(r.CacheMisses)
	e.u64(r.Writebacks)
	e.u64(r.L2Hits)
	e.u64(r.L2Misses)
	e.u64(r.Prefetches)
	e.recorder(r.IRFIntervals)
	e.recorder(r.FPRFIntervals)
	e.recorder(r.L1DIntervals)
}

// core serializes one checkpoint core — the dynamic-state inventory of
// Core.copyFrom in stable binary form.
func (e *gaEnc) core(cp *Core) error {
	if cp.irf != nil || cp.fprf != nil || cp.cache.tracker != nil ||
		cp.recIRF != nil || cp.recFPRF != nil || cp.cache.rec != nil {
		return fmt.Errorf("uarch: golden codec cannot serialize a core with ACE instrumentation attached")
	}

	// Architectural memory image.
	regions := cp.mem.Regions()
	e.u32(uint32(len(regions)))
	for _, r := range regions {
		e.bytes([]byte(r.Name))
		e.u64(r.Base)
		e.boolean(r.Writable)
		e.bytes(r.Data)
	}

	// Scratch architectural execution state (nondet stream position).
	st := &cp.execState
	for _, g := range st.GPR {
		e.u64(g)
	}
	for _, x := range st.XMM {
		e.u64(x[0])
		e.u64(x[1])
	}
	e.u8(uint8(st.Flags))
	e.i64(int64(st.PC))
	e.u64(st.NondetSalt)
	e.u64(st.NondetCounter())
	e.u64(st.InstRet)

	e.u64(cp.cycle)
	e.u64(cp.seq)
	e.u64(cp.instret)

	// Front end.
	e.i64(int64(cp.fetchPC))
	e.u64(cp.fetchStallUntil)
	e.u32(uint32(len(cp.fq)))
	for i := range cp.fq {
		f := &cp.fq[i]
		e.i64(int64(f.pc))
		e.i64(int64(f.predNext))
		e.boolean(f.poison)
		e.boolean(f.mutated)
		e.boolean(f.bad)
	}
	e.boolean(cp.decArmed)
	e.i64(int64(cp.decBit))
	e.inst(&cp.decInst)

	// Rename maps.
	for _, p := range cp.rat.intRAT {
		e.u16(p)
	}
	for _, p := range cp.rat.fpRAT {
		e.u16(p)
	}
	e.u16(cp.rat.flagRAT)

	// Physical register files, ready bits and free lists.
	e.u32(uint32(len(cp.intPRF)))
	for i, v := range cp.intPRF {
		e.u64(v)
		e.boolean(cp.intReady[i])
	}
	e.u32(uint32(len(cp.intFree)))
	for _, r := range cp.intFree {
		e.u16(r)
	}
	e.u32(uint32(len(cp.fpPRF)))
	for i, v := range cp.fpPRF {
		e.u64(v[0])
		e.u64(v[1])
		e.boolean(cp.fpReady[i])
	}
	e.u32(uint32(len(cp.fpFree)))
	for _, r := range cp.fpFree {
		e.u16(r)
	}
	e.u32(uint32(len(cp.flagPRF)))
	for i, v := range cp.flagPRF {
		e.u8(uint8(v))
		e.boolean(cp.flagRdy[i])
	}
	e.u32(uint32(len(cp.flagFree)))
	for _, r := range cp.flagFree {
		e.u16(r)
	}

	// ROB: geometry, then the live window ∪ in-flight entries (sorted by
	// index for a deterministic byte stream). Everything else is dead —
	// rename resets an entry before reusing it.
	e.u32(uint32(len(cp.rob)))
	e.u32(uint32(cp.robHead))
	e.u32(uint32(cp.robCnt))
	live := make(map[int]struct{}, cp.robCnt+len(cp.inflight))
	for k := 0; k < cp.robCnt; k++ {
		live[(cp.robHead+k)%len(cp.rob)] = struct{}{}
	}
	for _, idx := range cp.inflight {
		live[idx] = struct{}{}
	}
	idxs := make([]int, 0, len(live))
	for idx := range live {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	e.u32(uint32(len(idxs)))
	for _, idx := range idxs {
		u := &cp.rob[idx]
		if len(u.events) != 0 || len(u.ibr) != 0 {
			return fmt.Errorf("uarch: golden codec cannot serialize a µop with buffered ACE/IBR events")
		}
		e.u32(uint32(idx))
		e.u64(u.seq)
		e.i64(int64(u.pc))
		e.u8(uint8(u.st))
		e.boolean(u.isLoad)
		e.boolean(u.isStore)
		e.boolean(u.poison)
		e.boolean(u.mutated)
		e.boolean(u.bad)
		e.boolean(u.snapValid)
		e.boolean(u.squashed)
		e.u64(u.doneAt)
		e.i64(int64(u.memLat))
		e.i64(int64(u.predNext))
		e.i64(int64(u.actualNext))
		e.u32(uint32(len(u.srcs)))
		for _, s := range u.srcs {
			e.u8(s.cls)
			e.u8(s.arch)
			e.u16(s.bits)
			e.u16(s.phys)
		}
		e.u32(uint32(len(u.dsts)))
		for _, d := range u.dsts {
			e.u8(d.cls)
			e.u8(d.arch)
			e.u16(d.phys)
			e.u16(d.old)
		}
		if u.snapValid {
			for _, p := range u.snap.intRAT {
				e.u16(p)
			}
			for _, p := range u.snap.fpRAT {
				e.u16(p)
			}
			e.u16(u.snap.flagRAT)
		}
		e.crash(u.err)
		e.u32(uint32(len(u.writes)))
		for _, w := range u.writes {
			e.u64(w.addr)
			e.u64(w.data)
			e.u8(w.size)
		}
	}

	// Scheduler queues (ROB indices).
	for _, q := range [][]int{cp.iqOrder(nil), cp.sq, cp.inflight} {
		e.u32(uint32(len(q)))
		for _, idx := range q {
			e.i64(int64(idx))
		}
	}

	// Branch predictor.
	e.u64(cp.bp.history)
	e.bytes(cp.bp.table)

	// L1D lines, flat SRAM and stats.
	e.u64(cp.cache.hits)
	e.u64(cp.cache.misses)
	e.u64(cp.cache.writebacks)
	e.u32(uint32(len(cp.cache.lines)))
	for i := range cp.cache.lines {
		l := &cp.cache.lines[i]
		e.boolean(l.valid)
		e.boolean(l.dirty)
		e.u64(l.tag)
		e.u64(l.lastUse)
	}
	e.bytes(cp.cache.data)

	// L2 tag array.
	if l2 := cp.cache.l2; l2 != nil {
		e.u8(1)
		e.u64(l2.hits)
		e.u64(l2.misses)
		e.u64(l2.prefetches)
		e.u32(uint32(len(l2.tag)))
		for i := range l2.tag {
			e.boolean(l2.valid[i])
			e.u64(l2.tag[i])
			e.u64(l2.lastUse[i])
		}
	} else {
		e.u8(0)
	}

	// Counters and scratch that binds future behaviour.
	e.u64(cp.branches)
	e.u64(cp.mispredicts)
	e.u64(cp.flushes)
	e.i64(int64(cp.nLoads))
	e.i64(int64(cp.nStores))
	e.u64(cp.divBusyUntil[0])
	e.u64(cp.divBusyUntil[1])
	e.u64(cp.streamDigest)
	for s := 0; s < int(coverage.NumStructures); s++ {
		e.u64(cp.ibrC[s].EffBits)
		e.u64(cp.ibrC[s].Uses)
	}
	e.crash(cp.crash)
	e.boolean(cp.timedOut)
	e.boolean(cp.finished)
	return nil
}

// EncodeGoldenArtifacts serializes a bundle into its HXGA bytes.
func EncodeGoldenArtifacts(ga *GoldenArtifacts) ([]byte, error) {
	if ga == nil || ga.Result == nil {
		return nil, fmt.Errorf("uarch: golden codec needs a result")
	}
	e := &gaEnc{buf: make([]byte, 0, 1<<16)}
	e.u32(goldenMagic)
	e.u32(goldenVersion)

	// The checkpoint cores' scalar configuration, once for the bundle
	// (every checkpoint of one golden run shares it; hook fields carry
	// json:"-" and drop out, exactly as on the dist wire). The
	// instrumentation flags are scrubbed: a restored core never carries
	// trackers or recorders, so the decode-side init must not draw them —
	// and scrubbing here (not just at decode) makes re-encoding a decoded
	// bundle byte-identical.
	var cfgJSON []byte
	if len(ga.Checkpoints) > 0 {
		ck := ga.Checkpoints[0]
		if ck == nil || ck.core == nil {
			return nil, fmt.Errorf("uarch: golden codec given a released checkpoint")
		}
		cfg := scrubGoldenConfig(ck.core.cfg)
		var err error
		cfgJSON, err = json.Marshal(cfg)
		if err != nil {
			return nil, fmt.Errorf("uarch: golden codec config: %w", err)
		}
	}
	e.bytes(cfgJSON)

	e.result(ga.Result)

	if t := ga.Trajectory; t != nil {
		e.u8(1)
		e.u64(t.Interval)
		e.u32(uint32(len(t.Points)))
		for _, p := range t.Points {
			e.u64(p.Cycle)
			e.u64(p.Instret)
			e.u64(p.Stream)
			e.u64(p.State)
		}
	} else {
		e.u8(0)
	}

	e.u32(uint32(len(ga.Checkpoints)))
	for _, ck := range ga.Checkpoints {
		if ck == nil || ck.core == nil {
			return nil, fmt.Errorf("uarch: golden codec given a released checkpoint")
		}
		e.u64(ck.cycle)
		if err := e.core(ck.core); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

// --- decoder ----------------------------------------------------------

type gaDec struct {
	data []byte
	off  int
	err  error
}

func (d *gaDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("uarch: golden codec: "+format, args...)
	}
}

func (d *gaDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.data)-d.off < n {
		d.fail("truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *gaDec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *gaDec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (d *gaDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *gaDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *gaDec) i64() int64    { return int64(d.u64()) }
func (d *gaDec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *gaDec) boolean() bool { return d.u8() != 0 }
func (d *gaDec) length() int {
	n := d.u32()
	if n > maxGoldenElems {
		d.fail("length %d exceeds limit", n)
		return 0
	}
	return int(n)
}
func (d *gaDec) bytes() []byte {
	n := d.length()
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *gaDec) inst(in *isa.Inst) {
	in.V = isa.VariantID(d.u16())
	in.NOps = d.u8()
	for i := range in.Ops {
		op := &in.Ops[i]
		op.Kind = isa.OpKind(d.u8())
		op.Reg = isa.Reg(d.u8())
		op.X = isa.XReg(d.u8())
		op.Imm = d.i64()
		op.Mem.Base = isa.Reg(d.u8())
		op.Mem.HasIndex = d.boolean()
		op.Mem.Index = isa.Reg(d.u8())
		op.Mem.Scale = d.u8()
		op.Mem.Disp = int32(d.u32())
	}
}

func (d *gaDec) crash() *arch.CrashError {
	if d.u8() == 0 {
		return nil
	}
	return &arch.CrashError{
		Kind: arch.CrashKind(d.u8()),
		Addr: d.u64(),
		PC:   int(d.i64()),
		Exc:  isa.Exception(d.u8()),
	}
}

func (d *gaDec) recorder() *ace.IntervalRecorder {
	if d.err != nil || d.u8() == 0 {
		return nil
	}
	r, n, err := ace.DecodeIntervalRecorder(d.data[d.off:])
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.off += n
	return r
}

func (d *gaDec) result() *Result {
	r := &Result{}
	r.Cycles = d.u64()
	r.Instructions = d.u64()
	r.IRFVuln = d.f64()
	r.L1DVuln = d.f64()
	r.FPRFVuln = d.f64()
	for s := 0; s < int(coverage.NumStructures); s++ {
		r.IBR[s] = d.f64()
		r.UnitUses[s] = d.u64()
	}
	r.Crash = d.crash()
	r.Trap = isa.Exception(d.u8())
	r.TimedOut = d.boolean()
	r.Signature = d.u64()
	r.Reconverged = d.boolean()
	r.Branches = d.u64()
	r.Mispredicts = d.u64()
	r.Flushes = d.u64()
	r.CacheHits = d.u64()
	r.CacheMisses = d.u64()
	r.Writebacks = d.u64()
	r.L2Hits = d.u64()
	r.L2Misses = d.u64()
	r.Prefetches = d.u64()
	r.IRFIntervals = d.recorder()
	r.FPRFIntervals = d.recorder()
	r.L1DIntervals = d.recorder()
	return r
}

// core decodes one checkpoint core: a fresh pooled core is initialized
// from the decoded memory image and scrubbed config, then every dynamic
// field is patched from the stream.
func (d *gaDec) core(prog []isa.Inst, cfg Config) *Core {
	// Memory image.
	mem := arch.NewMemory()
	nr := d.length()
	for i := 0; i < nr && d.err == nil; i++ {
		name := string(d.bytes())
		base := d.u64()
		writable := d.boolean()
		data := d.bytes()
		if d.err != nil {
			break
		}
		if err := mem.AddRegion(&arch.Region{Name: name, Base: base, Data: data, Writable: writable}); err != nil {
			d.fail("region %q: %v", name, err)
		}
	}
	if d.err != nil {
		return nil
	}

	cp := getPooledCore()
	release := func() *Core {
		putPooledCore(cp)
		return nil
	}
	cp.init(prog, arch.NewState(mem), cfg)

	st := &cp.execState
	for i := range st.GPR {
		st.GPR[i] = d.u64()
	}
	for i := range st.XMM {
		st.XMM[i][0] = d.u64()
		st.XMM[i][1] = d.u64()
	}
	st.Flags = isa.Flags(d.u8())
	st.PC = int(d.i64())
	st.NondetSalt = d.u64()
	st.RestoreNondetCounter(d.u64())
	st.InstRet = d.u64()
	st.Mem = nil
	st.FU = nil

	cp.cycle = d.u64()
	cp.seq = d.u64()
	cp.instret = d.u64()

	cp.fetchPC = int(d.i64())
	cp.fetchStallUntil = d.u64()
	nfq := d.length()
	cp.fq = cp.fq[:0]
	for i := 0; i < nfq && d.err == nil; i++ {
		cp.fq = append(cp.fq, fqEntry{
			pc:       int(d.i64()),
			predNext: int(d.i64()),
			poison:   d.boolean(),
			mutated:  d.boolean(),
			bad:      d.boolean(),
		})
	}
	cp.decArmed = d.boolean()
	cp.decBit = int(d.i64())
	d.inst(&cp.decInst)

	for i := range cp.rat.intRAT {
		cp.rat.intRAT[i] = d.u16()
	}
	for i := range cp.rat.fpRAT {
		cp.rat.fpRAT[i] = d.u16()
	}
	cp.rat.flagRAT = d.u16()

	if n := d.length(); n != len(cp.intPRF) {
		d.fail("int PRF size %d does not match config %d", n, len(cp.intPRF))
		return release()
	}
	for i := range cp.intPRF {
		cp.intPRF[i] = d.u64()
		cp.intReady[i] = d.boolean()
	}
	cp.intFree = cp.intFree[:0]
	for i, n := 0, d.length(); i < n && d.err == nil; i++ {
		cp.intFree = append(cp.intFree, d.u16())
	}
	if n := d.length(); n != len(cp.fpPRF) {
		d.fail("fp PRF size %d does not match config %d", n, len(cp.fpPRF))
		return release()
	}
	for i := range cp.fpPRF {
		cp.fpPRF[i][0] = d.u64()
		cp.fpPRF[i][1] = d.u64()
		cp.fpReady[i] = d.boolean()
	}
	cp.fpFree = cp.fpFree[:0]
	for i, n := 0, d.length(); i < n && d.err == nil; i++ {
		cp.fpFree = append(cp.fpFree, d.u16())
	}
	if n := d.length(); n != len(cp.flagPRF) {
		d.fail("flag PRF size %d does not match config %d", n, len(cp.flagPRF))
		return release()
	}
	for i := range cp.flagPRF {
		cp.flagPRF[i] = isa.Flags(d.u8())
		cp.flagRdy[i] = d.boolean()
	}
	cp.flagFree = cp.flagFree[:0]
	for i, n := 0, d.length(); i < n && d.err == nil; i++ {
		cp.flagFree = append(cp.flagFree, d.u16())
	}

	if n := d.length(); n != len(cp.rob) {
		d.fail("ROB size %d does not match config %d", n, len(cp.rob))
		return release()
	}
	cp.robHead = int(d.u32())
	cp.robCnt = int(d.u32())
	if cp.robHead >= len(cp.rob) || cp.robCnt > len(cp.rob) {
		d.fail("ROB window [%d,%d) out of range", cp.robHead, cp.robCnt)
		return release()
	}
	nuops := d.length()
	for k := 0; k < nuops && d.err == nil; k++ {
		idx := int(d.u32())
		if idx >= len(cp.rob) {
			d.fail("µop index %d out of range", idx)
			return release()
		}
		u := &cp.rob[idx]
		u.reset()
		u.seq = d.u64()
		u.pc = int(d.i64())
		u.st = uopState(d.u8())
		u.isLoad = d.boolean()
		u.isStore = d.boolean()
		u.poison = d.boolean()
		u.mutated = d.boolean()
		u.bad = d.boolean()
		u.snapValid = d.boolean()
		u.squashed = d.boolean()
		u.doneAt = d.u64()
		u.memLat = int(d.i64())
		u.predNext = int(d.i64())
		u.actualNext = int(d.i64())
		for i, n := 0, d.length(); i < n && d.err == nil; i++ {
			u.srcs = append(u.srcs, rsrc{
				cls: d.u8(), arch: d.u8(), bits: d.u16(), phys: d.u16(),
			})
		}
		for i, n := 0, d.length(); i < n && d.err == nil; i++ {
			u.dsts = append(u.dsts, rdst{
				cls: d.u8(), arch: d.u8(), phys: d.u16(), old: d.u16(),
			})
		}
		if u.snapValid {
			for i := range u.snap.intRAT {
				u.snap.intRAT[i] = d.u16()
			}
			for i := range u.snap.fpRAT {
				u.snap.fpRAT[i] = d.u16()
			}
			u.snap.flagRAT = d.u16()
		}
		u.err = d.crash()
		for i, n := 0, d.length(); i < n && d.err == nil; i++ {
			u.writes = append(u.writes, storeWrite{
				addr: d.u64(), data: d.u64(), size: d.u8(),
			})
		}
		if d.err != nil {
			return release()
		}
		// The variant and instruction pointers are reconstructed, not
		// serialized — renameOne's exact rules: poison/bad entries carry
		// the zero variant and no instruction; mutated entries execute the
		// core's corrupted decInst; everything else points at the shared
		// program image.
		switch {
		case u.poison || u.bad:
			u.v = isa.Lookup(0)
			u.inst = nil
		case u.mutated:
			u.inst = &cp.decInst
			u.v = isa.Lookup(cp.decInst.V)
		default:
			if u.pc < 0 || u.pc >= len(prog) {
				d.fail("µop pc %d outside program of %d instructions", u.pc, len(prog))
				return release()
			}
			u.inst = &cp.prog[u.pc]
			u.v = isa.Lookup(u.inst.V)
		}
	}

	// The issue queue travels as its age-ordered index list; every entry
	// must be a distinct slot of the live ROB window.
	for i, n := 0, d.length(); i < n && d.err == nil; i++ {
		idx := int(d.i64())
		if idx < 0 || idx >= len(cp.rob) || (idx-cp.robHead+len(cp.rob))%len(cp.rob) >= cp.robCnt ||
			hasBit(cp.iqMask, idx) {
			d.fail("issue queue index %d outside the ROB window or repeated", idx)
			return release()
		}
		setBit(cp.iqMask, idx)
		cp.iqCnt++
	}
	for _, q := range []*[]int{&cp.sq, &cp.inflight} {
		*q = (*q)[:0]
		for i, n := 0, d.length(); i < n && d.err == nil; i++ {
			idx := int(d.i64())
			if idx < 0 || idx >= len(cp.rob) {
				d.fail("queue index %d out of range", idx)
				return release()
			}
			*q = append(*q, idx)
		}
	}

	cp.bp.history = d.u64()
	table := d.bytes()
	if d.err == nil && len(table) != len(cp.bp.table) {
		d.fail("gshare table size %d does not match config %d", len(table), len(cp.bp.table))
		return release()
	}
	copy(cp.bp.table, table)

	cp.cache.hits = d.u64()
	cp.cache.misses = d.u64()
	cp.cache.writebacks = d.u64()
	if n := d.length(); n != len(cp.cache.lines) {
		d.fail("L1D line count %d does not match config %d", n, len(cp.cache.lines))
		return release()
	}
	for i := range cp.cache.lines {
		l := &cp.cache.lines[i]
		l.valid = d.boolean()
		l.dirty = d.boolean()
		l.tag = d.u64()
		l.lastUse = d.u64()
	}
	sram := d.bytes()
	if d.err == nil && len(sram) != len(cp.cache.data) {
		d.fail("L1D SRAM size %d does not match config %d", len(sram), len(cp.cache.data))
		return release()
	}
	copy(cp.cache.data, sram)

	hasL2 := d.u8() == 1
	if d.err == nil && hasL2 != (cp.cache.l2 != nil) {
		d.fail("L2 presence does not match config")
		return release()
	}
	if hasL2 && d.err == nil {
		l2 := cp.cache.l2
		l2.hits = d.u64()
		l2.misses = d.u64()
		l2.prefetches = d.u64()
		if n := d.length(); n != len(l2.tag) {
			d.fail("L2 tag count %d does not match config %d", n, len(l2.tag))
			return release()
		}
		for i := range l2.tag {
			l2.valid[i] = d.boolean()
			l2.tag[i] = d.u64()
			l2.lastUse[i] = d.u64()
		}
	}

	cp.branches = d.u64()
	cp.mispredicts = d.u64()
	cp.flushes = d.u64()
	cp.nLoads = int(d.i64())
	cp.nStores = int(d.i64())
	cp.divBusyUntil[0] = d.u64()
	cp.divBusyUntil[1] = d.u64()
	cp.streamDigest = d.u64()
	for s := 0; s < int(coverage.NumStructures); s++ {
		cp.ibrC[s].EffBits = d.u64()
		cp.ibrC[s].Uses = d.u64()
	}
	cp.crash = d.crash()
	cp.timedOut = d.boolean()
	cp.finished = d.boolean()
	if d.err != nil {
		return release()
	}
	cp.dropWakeup()
	return cp
}

// DecodeGoldenArtifacts parses HXGA bytes back into a bundle. The
// program must be the exact instruction slice the bundle was computed
// for (the cache key guarantees this) — µop instruction pointers are
// rebound to it. On error every pooled resource acquired during the
// partial decode is released.
func DecodeGoldenArtifacts(data []byte, prog []isa.Inst) (*GoldenArtifacts, error) {
	d := &gaDec{data: data}
	if d.u32() != goldenMagic {
		return nil, fmt.Errorf("uarch: golden codec: bad magic")
	}
	if v := d.u32(); v != goldenVersion {
		return nil, fmt.Errorf("uarch: golden codec: unsupported version %d", v)
	}
	cfgJSON := d.bytes()
	var cfg Config
	if len(cfgJSON) > 0 {
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			return nil, fmt.Errorf("uarch: golden codec config: %w", err)
		}
	}
	cfg = scrubGoldenConfig(cfg) // belt-and-braces; the encoder scrubbed already

	ga := &GoldenArtifacts{}
	fail := func() (*GoldenArtifacts, error) {
		ga.Release()
		return nil, d.err
	}
	ga.Result = d.result()
	if d.err != nil {
		return fail()
	}

	if d.u8() == 1 {
		interval := d.u64()
		npts := d.length()
		if d.err != nil {
			return fail()
		}
		t := GetDeltaTrajectory(interval)
		t.Interval = interval // preserve 0 exactly as recorded (Get defaults it)
		ga.Trajectory = t
		for i := 0; i < npts && d.err == nil; i++ {
			t.Points = append(t.Points, DeltaPoint{
				Cycle:   d.u64(),
				Instret: d.u64(),
				Stream:  d.u64(),
				State:   d.u64(),
			})
		}
		if d.err != nil {
			return fail()
		}
	}

	ncks := d.length()
	for i := 0; i < ncks && d.err == nil; i++ {
		cycle := d.u64()
		cp := d.core(prog, cfg)
		if d.err != nil {
			return fail()
		}
		liveCheckpoints.Add(1)
		ga.Checkpoints = append(ga.Checkpoints, &Checkpoint{cycle: cycle, core: cp})
	}
	if d.err != nil {
		return fail()
	}
	if d.off != len(data) {
		d.fail("%d trailing bytes", len(data)-d.off)
		return fail()
	}
	return ga, nil
}
