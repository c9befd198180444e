package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"slices"
	"time"

	"digamma/internal/core"
	"digamma/internal/faults"
	"digamma/internal/space"
)

// Coordinator is a core.Placement that shards a run's islands across
// worker processes. It declines (falling back to the bit-identical
// in-process path) whenever the run shape or the worker pool is not
// eligible; once committed, the result is a pure function of
// (Seed, Islands, MigrateEvery, Profiles) — never of worker count or
// message timing — because workers step their islands through the
// engine's own island methods and all cross-island routing is computed
// from the deterministic ring (core.Inboxes).
//
// Failure model: a connection error marks the worker dead and its
// islands are re-homed onto survivors: adopted fresh and replayed through
// the coordinator's log of segments, with the logged migrants delivered
// again and every replayed export checked byte-for-byte against the log
// (the replay is the same pure computation, so it is bit-identical).
// Workers never ship island snapshots; the log costs only the run's
// export bytes. Worker-reported errors are fatal — they are
// deterministic (divergent cost model, protocol misuse) and would replay
// identically anywhere. Losing every worker is fatal too: by then
// the engine's RNG has advanced, so an in-process restart could not be
// bit-identical.
type Coordinator struct {
	// Spec must describe exactly the run the engine was built for; the
	// handshake cross-checks ConfigSum so a drifted spec declines rather
	// than computing something different.
	Spec Spec
	// Workers lists worker addresses (host:port).
	Workers []string
	// DialTimeout bounds each worker dial (default 5s); IOTimeout bounds
	// each request/ack round trip (default 5m — a round evaluates many
	// design points).
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// Faults arms the dist.* chaos points on coordinator-side frame IO.
	Faults *faults.Injector
	// Log receives re-homing and decline diagnostics; nil silences them.
	Log *log.Logger

	// logged, when set, observes each boundary's logged exports once its
	// migrants were delivered; tests use it to corrupt the replay log.
	logged func(exports [][]byte)
}

var _ core.Placement = (*Coordinator)(nil)

type peer struct {
	addr  string
	fc    *frameConn
	alive bool
}

// run is one committed distributed run's mutable state.
type run struct {
	c      *Coordinator
	e      *core.Engine
	budget int

	plan   *core.RunPlan
	scouts []bool
	route  []int

	peers    []*peer
	owner    []int // island → index into peers
	rehomeAt int   // rotating cursor balancing re-homed islands

	// log holds every segment whose round wave completed, in order: the
	// script that rebuilds a lost island on a survivor.
	log []logEntry

	hist []float64
	seq  int

	// Cumulative accounting at the last segment end, for per-body
	// progress offsets.
	prevTotal, prevFull, prevScout int
	gens                           int
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

// logEntry is one segment and, at a migration boundary, every island's
// exports as its worker encoded them: the migrants the next round (or
// the finalize) delivers.
type logEntry struct {
	seg     *core.Segment
	exports [][]byte
}

// pending returns the last logged segment when it ended on a migration
// boundary: every island stands mid-boundary, and the next wave delivers
// its migrants. Otherwise it returns nil.
func (r *run) pending() *logEntry {
	if n := len(r.log); n > 0 && r.log[n-1].seg.Boundary {
		return &r.log[n-1]
	}
	return nil
}

// delivered tells the test hook that a wave has delivered prev's
// migrants to every island.
func (r *run) delivered(prev *logEntry) {
	if prev != nil && r.c.logged != nil {
		r.c.logged(prev.exports)
	}
}

// Run implements core.Placement.
func (c *Coordinator) Run(ctx context.Context, e *core.Engine, budget int) (*core.Result, bool, error) {
	if why := c.ineligible(e, budget); why != "" {
		c.logf("dist: declining run: %s", why)
		return nil, false, nil
	}

	// Dial + handshake every worker BEFORE committing: PlanRun draws the
	// per-island seeds from the engine's master stream, so any failure up
	// to that point must leave the engine untouched for the bit-identical
	// in-process fallback.
	peers, why := c.handshake(e, budget)
	if peers == nil {
		c.logf("dist: declining run: %s", why)
		return nil, false, nil
	}

	plan, err := e.PlanRun(budget) // the commit point: RNG consumed
	if err != nil {
		closeAll(peers)
		return nil, true, err
	}
	scouts := make([]bool, len(plan.Islands))
	for i, ip := range plan.Islands {
		scouts[i] = ip.Scout
	}
	r := &run{
		c: c, e: e, budget: budget,
		plan:   plan,
		scouts: scouts,
		route:  core.MigrationRoute(scouts),
		peers:  peers,
		owner:  make([]int, len(plan.Islands)),
	}
	for _, ip := range plan.Islands {
		r.prevTotal += ip.Pop
		if ip.Scout {
			r.prevScout += ip.Pop
		} else {
			r.prevFull += ip.Pop
		}
	}
	defer closeAll(r.peers)

	res, err := r.execute(ctx)
	return res, true, err
}

// ineligible reports why the run cannot be distributed ("" = eligible).
// Per-sample and durability hooks are per-evaluation state the protocol
// does not carry; Target/Warm/BestEffort change the loop shape in ways
// the schedule simulation does not model. All of them fall back to the
// in-process path, which supports everything.
func (c *Coordinator) ineligible(e *core.Engine, budget int) string {
	if len(c.Workers) == 0 {
		return "no workers configured"
	}
	if k := e.PlannedIslands(budget); k < 2 {
		return fmt.Sprintf("run builds %d island(s), distribution needs ≥ 2", k)
	}
	if seed := e.Seed(); seed != c.Spec.Seed {
		return fmt.Sprintf("spec seed %d != engine seed %d", c.Spec.Seed, seed)
	}
	if e.Resume != nil {
		return "resumed run"
	}
	if e.OnEvaluation != nil {
		return "per-evaluation hook installed"
	}
	if e.OnCheckpoint != nil && e.Config.CheckpointEvery > 0 {
		return "checkpointing enabled"
	}
	if e.Config.Target > 0 {
		return "time-to-target mode"
	}
	if len(e.Config.Warm) > 0 {
		return "warm-started run"
	}
	if e.Config.BestEffort {
		return "best-effort cancellation semantics"
	}
	return ""
}

// handshake dials and hellos every worker. Any failure — unreachable
// worker, protocol/config-sum/island-count mismatch — closes everything
// and returns nil: distribution is all-or-nothing at start (re-homing
// only covers losses after commit).
func (c *Coordinator) handshake(e *core.Engine, budget int) ([]*peer, string) {
	dialTO := c.DialTimeout
	if dialTO <= 0 {
		dialTO = 5 * time.Second
	}
	sum := e.ConfigSum()
	k := e.PlannedIslands(budget)
	peers := make([]*peer, 0, len(c.Workers))
	fail := func(why string) ([]*peer, string) {
		closeAll(peers)
		return nil, why
	}
	for _, addr := range c.Workers {
		conn, err := net.DialTimeout("tcp", addr, dialTO)
		if err != nil {
			return fail(fmt.Sprintf("worker %s: %v", addr, err))
		}
		p := &peer{addr: addr, fc: &frameConn{rw: conn, inj: c.Faults}, alive: true}
		peers = append(peers, p)
		p.fc.setDeadline(c.ioTimeout())
		err = p.fc.writeMsg(mtHello, helloMsg{Proto: ProtoVersion, Spec: c.Spec, ConfigSum: sum, Budget: budget})
		var ack helloAck
		if err == nil {
			err = p.fc.expect(mtHelloAck, &ack)
		}
		switch {
		case err != nil:
			return fail(fmt.Sprintf("worker %s: %v", addr, err))
		case ack.Err != "":
			return fail(fmt.Sprintf("worker %s refused: %s", addr, ack.Err))
		case ack.Proto != ProtoVersion:
			return fail(fmt.Sprintf("worker %s: protocol %d, want %d", addr, ack.Proto, ProtoVersion))
		case ack.ConfigSum != sum:
			return fail(fmt.Sprintf("worker %s: config sum %s, want %s", addr, ack.ConfigSum, sum))
		case ack.Islands != k:
			return fail(fmt.Sprintf("worker %s: plans %d islands, want %d", addr, ack.Islands, k))
		}
	}
	return peers, ""
}

func (c *Coordinator) ioTimeout() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return 5 * time.Minute
}

func closeAll(peers []*peer) {
	for _, p := range peers {
		if p.alive {
			p.alive = false
			p.fc.rw.Close()
		}
	}
}

// execute drives the committed run: initial adoption, the segment loop,
// finalization and result assembly.
func (r *run) execute(ctx context.Context) (*core.Result, error) {
	// Initial placement: island i on worker i mod W, adopted fresh.
	// Adoption failures are handled by the same re-homing path as later
	// losses.
	for i := range r.owner {
		r.owner[i] = i % len(r.peers)
	}
	if err := r.adopt(r.allIslands()); err != nil {
		return nil, err
	}

	sched := core.NewSchedule(r.plan)
	for seg := sched.Next(); seg != nil; seg = sched.Next() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w after generation %d (%d samples): %w",
				core.ErrCancelled, r.gens, r.prevTotal, err)
		}
		if err := r.runSegment(seg); err != nil {
			return nil, err
		}
		r.gens += seg.Bodies
		r.prevTotal = seg.PerBodyTotal[seg.Bodies-1]
		r.prevFull = seg.PerBodyFull[seg.Bodies-1]
		r.prevScout = seg.PerBodyScout[seg.Bodies-1]
	}
	if r.gens != sched.Generations() {
		return nil, fmt.Errorf("dist: scheduled %d generations, ran %d", sched.Generations(), r.gens)
	}
	return r.finalize()
}

func (r *run) allIslands() []int {
	ids := make([]int, len(r.owner))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// markDead retires a peer after a transport failure.
func (r *run) markDead(p *peer, why error) {
	if !p.alive {
		return
	}
	p.alive = false
	p.fc.rw.Close()
	r.c.logf("dist: worker %s lost: %v", p.addr, why)
}

func (r *run) liveCount() int {
	n := 0
	for _, p := range r.peers {
		if p.alive {
			n++
		}
	}
	return n
}

// rehome moves every listed island whose owner is dead onto a live peer,
// rotating across survivors, adopts it there fresh and replays it through
// the log, so it stands where live islands stand: at the end of the last
// logged segment, mid-boundary if that segment ended on one. Losses
// during the replay re-home again. On return all listed islands have
// live owners.
func (r *run) rehome(ids []int) error {
	for {
		var lost []int
		for _, id := range ids {
			if !r.peers[r.owner[id]].alive {
				lost = append(lost, id)
			}
		}
		if len(lost) == 0 {
			return nil
		}
		for _, id := range lost {
			w, err := r.pickLive()
			if err != nil {
				return err
			}
			r.c.logf("dist: re-homing island %d: %s → %s, replaying %d segments",
				id, r.peers[r.owner[id]].addr, r.peers[w].addr, len(r.log))
			r.owner[id] = w
		}
		if err := r.adopt(lost); err != nil {
			return err
		}
		if err := r.replay(lost); err != nil {
			return err
		}
	}
}

func (r *run) pickLive() (int, error) {
	n := len(r.peers)
	for i := 0; i < n; i++ {
		w := (r.rehomeAt + i) % n
		if r.peers[w].alive {
			r.rehomeAt = w + 1
			return w, nil
		}
	}
	return 0, fmt.Errorf("dist: all workers lost")
}

// adopt assigns the islands to their owners, fresh.
func (r *run) adopt(ids []int) error {
	return exchange(r, ids, mtAdopt, mtAdoptAck, func(own []int) any {
		msg := adoptMsg{}
		for _, id := range own {
			msg.Islands = append(msg.Islands, assignment{ID: id, Seed: r.plan.Islands[id].Seed})
		}
		return msg
	}, func(p *peer, _ []int, ack *adoptAck) error {
		if ack.Err != "" {
			return fmt.Errorf("dist: worker %s: adopt: %s", p.addr, ack.Err)
		}
		return nil
	})
}

// replay drives freshly adopted islands through every logged segment
// with the same round waves a live run sends, each delivering the
// previous boundary's logged migrants, and checks each replayed export
// byte-for-byte against the log. The last boundary's migrants are left
// to the wave that follows, as they are for live islands. Islands whose
// new owner dies mid-replay drop out; rehome moves them again.
func (r *run) replay(ids []int) error {
	var prev *logEntry
	for i := range r.log {
		ent := &r.log[i]
		reports := make([]*core.ShardReport, len(r.owner))
		if err := r.roundWave(ids, ent.seg, prev, reports); err != nil {
			return err
		}
		ids = reported(ids, reports)
		prev = nil
		if ent.seg.Boundary {
			if err := checkReplay(ids, reports, ent.exports); err != nil {
				return err
			}
			prev = ent
		}
	}
	return nil
}

// checkReplay compares replayed boundary exports with the logged ones
// byte for byte. Replay is the same pure computation as the original
// round, so any difference means nondeterminism: the run fails instead
// of continuing from a population that never existed.
func checkReplay(ids []int, reports []*core.ShardReport, logged [][]byte) error {
	for _, id := range ids {
		if got := reports[id].Exports; !bytes.Equal(got, logged[id]) {
			return fmt.Errorf("dist: island %d replay diverged: %d export bytes differ from the %d logged",
				id, len(got), len(logged[id]))
		}
	}
	return nil
}

// reported filters ids down to the islands that have a report.
func reported(ids []int, reports []*core.ShardReport) []int {
	var out []int
	for _, id := range ids {
		if reports[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

func (r *run) groupByOwner(ids []int) map[int][]int {
	byOwner := make(map[int][]int)
	for _, id := range ids {
		byOwner[r.owner[id]] = append(byOwner[r.owner[id]], id)
	}
	return byOwner
}

// roundWave sends one round for seg to the owners of the listed islands,
// then reads all acks and files their reports by island. When prev ended
// on a migration boundary, the round first delivers its migrants. Islands
// on workers that fail stay report-less for the caller's retry loop;
// worker-reported errors are fatal.
func (r *run) roundWave(ids []int, seg *core.Segment, prev *logEntry, reports []*core.ShardReport) error {
	r.seq++
	inbox := r.inbox(prev)
	return exchange(r, ids, mtRound, mtRoundAck, func(own []int) any {
		return &roundMsg{Seq: r.seq, IDs: own, Bodies: seg.Bodies, Boundary: seg.Boundary, Deliveries: deliveries(own, inbox)}
	}, func(p *peer, own []int, ack *roundAck) error {
		if err := r.checkAck(ack, own, seg, prev); err != nil {
			return fmt.Errorf("dist: worker %s: round %d: %w", p.addr, r.seq, err)
		}
		for i := range ack.Reports {
			reports[ack.Reports[i].Island] = &ack.Reports[i]
		}
		return nil
	})
}

// inbox routes prev's logged exports to their destinations, or returns
// nil when prev is nil: no boundary pending.
func (r *run) inbox(prev *logEntry) [][]core.MigrantBatch {
	if prev == nil {
		return nil
	}
	return core.Inboxes(r.route, prev.exports)
}

// deliveries addresses each listed island its migrant batches — the
// source islands' logged export bytes, forwarded verbatim, and none for
// islands the ring routes nothing to: the boundary's second sort must
// still run. With no inbox there is nothing to deliver.
func deliveries(ids []int, inbox [][]core.MigrantBatch) []delivery {
	if inbox == nil {
		return nil
	}
	out := make([]delivery, len(ids))
	for i, id := range ids {
		out[i] = delivery{ID: id, Batches: inbox[id]}
	}
	return out
}

// exchange sends every live owner of the listed islands the request msg
// builds for its share, then reads each owner's ack and hands it to
// handle. Sending to all owners before reading any ack keeps every wave
// worker-concurrent. Owners already dead (a replay can list islands whose
// adoption failed) are skipped. Transport failures mark the owner dead
// and leave its islands for the caller's retry loop; handle's errors are
// fatal, and so is losing every worker.
func exchange[A any](r *run, ids []int, typ, ackTyp byte, msg func(own []int) any, handle func(p *peer, own []int, ack *A) error) error {
	type pending struct {
		p   *peer
		own []int
	}
	byOwner := r.groupByOwner(ids)
	var sent []pending
	for _, w := range slices.Sorted(maps.Keys(byOwner)) {
		p := r.peers[w]
		if !p.alive {
			continue
		}
		p.fc.setDeadline(r.c.ioTimeout())
		if err := p.fc.writeMsg(typ, msg(byOwner[w])); err != nil {
			r.markDead(p, err)
			continue
		}
		sent = append(sent, pending{p, byOwner[w]})
	}
	for _, s := range sent {
		var ack A
		if err := s.p.fc.expect(ackTyp, &ack); err != nil {
			r.markDead(s.p, err)
			continue
		}
		if err := handle(s.p, s.own, &ack); err != nil {
			return err
		}
	}
	if r.liveCount() == 0 {
		return fmt.Errorf("dist: all workers lost")
	}
	return nil
}

// checkAck validates a round ack against its request: its completions
// pass checkCompletions, it reports exactly the requested islands, each
// once, every full-fidelity island's report carries one history entry
// per body of the segment (scouts carry none), and an island whose
// segment ended without a boundary stands at the schedule's counts.
func (r *run) checkAck(ack *roundAck, ids []int, seg *core.Segment, prev *logEntry) error {
	if ack.Err != "" {
		return errors.New(ack.Err)
	}
	if err := checkCompletions(ack.Completions, ids, prev); err != nil {
		return err
	}
	if err := sameIslands(islandsOf(ack.Reports), ids); err != nil {
		return err
	}
	for i := range ack.Reports {
		rep := &ack.Reports[i]
		want := seg.Bodies
		if r.scouts[rep.Island] {
			want = 0
		}
		if len(rep.Hist) != want {
			return fmt.Errorf("island %d reports %d history entries, want %d", rep.Island, len(rep.Hist), want)
		}
		if !seg.Boundary {
			if err := checkSamples(rep, seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCompletions validates the boundary completions of an ack: with
// prev pending, exactly the requested islands, each once, each standing
// at the schedule's counts for prev's segment; with nothing pending,
// none.
func checkCompletions(got []core.ShardReport, ids []int, prev *logEntry) error {
	var want []int
	if prev != nil {
		want = ids
	}
	if err := sameIslands(islandsOf(got), want); err != nil {
		return fmt.Errorf("boundary completions: %w", err)
	}
	for i := range got {
		if err := checkSamples(&got[i], prev.seg); err != nil {
			return fmt.Errorf("boundary completions: %w", err)
		}
	}
	return nil
}

func islandsOf(reps []core.ShardReport) []int {
	ids := make([]int, len(reps))
	for i := range reps {
		ids[i] = reps[i].Island
	}
	return ids
}

// sameIslands checks that an ack reported exactly the requested islands.
func sameIslands(got, want []int) error {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		return fmt.Errorf("reports islands %v, requested %v", got, want)
	}
	return nil
}

// runSegment executes one segment as one round wave: every island
// completes the pending boundary, if any, with the migrants the wave
// delivers, then advances through the segment's bodies; losses re-home
// and retry. Then come progress and migration observation, and the
// segment joins the replay log. Its own boundary's migrants, if it ends
// on one, ride the next wave.
func (r *run) runSegment(seg *core.Segment) error {
	k := len(r.owner)
	prev := r.pending()
	reports := make([]*core.ShardReport, k)
	for missing := missingOf(reports); len(missing) > 0; missing = missingOf(reports) {
		if err := r.rehome(missing); err != nil {
			return err
		}
		if err := r.roundWave(missing, seg, prev, reports); err != nil {
			return err
		}
	}
	r.delivered(prev)
	r.emitSegment(seg, reports)

	ent := logEntry{seg: seg}
	if seg.Boundary {
		ent.exports = make([][]byte, k)
		for id, rep := range reports {
			ent.exports[id] = rep.Exports
		}
		// Observation first: the engine emits before any replacement lands.
		if err := r.e.ObserveMigration(seg.StartGen+seg.Bodies-1, ent.exports); err != nil {
			return err
		}
	}
	r.log = append(r.log, ent)
	return nil
}

func missingOf(reports []*core.ShardReport) []int {
	var out []int
	for id, rep := range reports {
		if rep == nil {
			out = append(out, id)
		}
	}
	return out
}

// checkSamples cross-checks an island that completed seg against the
// schedule.
func checkSamples(rep *core.ShardReport, seg *core.Segment) error {
	if want := seg.IslandSamples[rep.Island]; rep.Samples != want {
		return fmt.Errorf("island %d spent %d samples, schedule says %d", rep.Island, rep.Samples, want)
	}
	if want := seg.StartGen + seg.Bodies - 1; rep.Gen != want {
		return fmt.Errorf("island %d completed %d generations, schedule says %d", rep.Island, rep.Gen, want)
	}
	return nil
}

// emitSegment replays the engine's per-body OnGeneration emissions for a
// completed segment, in order. Content matches the in-process run's
// exactly for the search-trajectory fields (Generation, Samples, Budget,
// BestFitness, ScoutEvals); the telemetry fields the coordinator cannot
// see mid-run (cache/pool/delta counters, the full/pruned split under
// Config.Prune) read as zero until the exact final snapshot.
func (r *run) emitSegment(seg *core.Segment, reports []*core.ShardReport) {
	for b := 0; b < seg.Bodies; b++ {
		best := 0.0
		found := false
		for id, rep := range reports {
			if r.scouts[id] {
				continue
			}
			if !found || rep.Hist[b] < best {
				best = rep.Hist[b]
				found = true
			}
		}
		r.hist = append(r.hist, best)
		if r.e.OnGeneration == nil {
			continue
		}
		total, full, scout := r.prevTotal, r.prevFull, r.prevScout
		if b > 0 {
			total, full, scout = seg.PerBodyTotal[b-1], seg.PerBodyFull[b-1], seg.PerBodyScout[b-1]
		}
		r.e.OnGeneration(core.Progress{
			Generation:  seg.StartGen + b - 1,
			Samples:     total,
			Budget:      r.budget,
			BestFitness: best,
			FullEvals:   full,
			ScoutEvals:  scout,
		})
	}
}

// finalize collects every island's final report — completing the
// run's last boundary first when it ended on one — and assembles the
// Result exactly as Engine.finalize would: populations sorted, the
// global best re-evaluated locally (pure, so bit-identical) and
// detached, counters summed, History closed with the final best.
func (r *run) finalize() (*core.Result, error) {
	k := len(r.owner)
	prev := r.pending()
	finals := make([]*core.ShardFinal, k)
	for {
		var missing []int
		for id, fin := range finals {
			if fin == nil {
				missing = append(missing, id)
			}
		}
		if len(missing) == 0 {
			break
		}
		if err := r.rehome(missing); err != nil {
			return nil, err
		}
		if err := r.finalizeWave(missing, prev, finals); err != nil {
			return nil, err
		}
	}
	r.delivered(prev)

	res := &core.Result{Generations: r.gens}
	winner := -1
	var best core.IndividualState
	for id, fin := range finals {
		res.Samples += fin.Samples
		res.FullEvals += fin.FullEvals
		res.PrunedEvals += fin.PrunedEvals
		res.ScoutEvals += fin.ScoutEvals
		res.DeltaEvals += fin.DeltaEvals
		res.LayersReused += fin.LayersReused
		res.PoolGets += fin.PoolGets
		res.PoolReuses += fin.PoolReuses
		if fin.IsScout || fin.Best == nil {
			continue
		}
		sel, err := core.DecodeStates(fin.Best)
		if err == nil && len(sel) != 1 {
			err = fmt.Errorf("%d states, want 1", len(sel))
		}
		if err != nil {
			return nil, fmt.Errorf("dist: island %d final best: %w", id, err)
		}
		if winner < 0 || sel[0].Fitness < best.Fitness {
			winner, best = id, sel[0]
		}
	}
	if res.Samples != r.prevTotal {
		return nil, fmt.Errorf("dist: finals report %d samples, schedule spent %d", res.Samples, r.prevTotal)
	}
	if winner < 0 {
		return nil, fmt.Errorf("dist: no full-fidelity island reported a best")
	}
	if best.Pruned {
		return nil, fmt.Errorf("dist: island %d best is a pruned bound", winner)
	}
	// Re-evaluate the winner locally: evaluation is pure, so this both
	// materializes the full Evaluation (the wire carries only the genome
	// and its fitness) and cross-checks the worker's cost model one last
	// time.
	ev, err := r.e.Problem.EvaluateCanonical(space.Genome{Fanouts: best.Fanouts, Maps: best.Maps})
	if err != nil {
		return nil, fmt.Errorf("dist: re-evaluating final best: %w", err)
	}
	if ev.Fitness != best.Fitness {
		return nil, fmt.Errorf("dist: final best re-evaluates to %g, worker reported %g (divergent cost model?)", ev.Fitness, best.Fitness)
	}
	res.Best = ev.Detach()
	res.History = append(r.hist, best.Fitness)
	if r.e.OnGeneration != nil {
		r.e.OnGeneration(core.Progress{
			Generation:   len(res.History) - 1,
			Samples:      res.Samples,
			Budget:       r.budget,
			BestFitness:  best.Fitness,
			FullEvals:    res.FullEvals,
			PrunedEvals:  res.PrunedEvals,
			ScoutEvals:   res.ScoutEvals,
			DeltaEvals:   res.DeltaEvals,
			LayersReused: res.LayersReused,
			PoolGets:     res.PoolGets,
			PoolReuses:   res.PoolReuses,
		})
	}
	return res, nil
}

// finalizeWave requests final reports for the listed islands from their
// owners, delivering prev's migrants first when it is pending.
func (r *run) finalizeWave(ids []int, prev *logEntry, finals []*core.ShardFinal) error {
	inbox := r.inbox(prev)
	return exchange(r, ids, mtFinalize, mtFinalizeAck, func(own []int) any {
		return &finalizeMsg{IDs: own, Deliveries: deliveries(own, inbox)}
	}, func(p *peer, own []int, ack *finalizeAck) error {
		if ack.Err != "" {
			return fmt.Errorf("dist: worker %s: finalize: %s", p.addr, ack.Err)
		}
		if err := checkCompletions(ack.Completions, own, prev); err != nil {
			return fmt.Errorf("dist: worker %s: finalize: %w", p.addr, err)
		}
		got := make([]int, len(ack.Finals))
		for i, fin := range ack.Finals {
			got[i] = fin.Island
		}
		if err := sameIslands(got, own); err != nil {
			return fmt.Errorf("dist: worker %s: finalize: %w", p.addr, err)
		}
		for i := range ack.Finals {
			finals[ack.Finals[i].Island] = &ack.Finals[i]
		}
		return nil
	})
}
