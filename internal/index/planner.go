package index

import (
	"math"

	"repro/internal/obs"
	"repro/internal/zonestat"
)

// This file implements the statistics-driven query planner shared by every
// index: given a zonestat.Synopsis per probe unit (LSM run, stream
// partition, shard), ProbeUnits
//
//   - orders units by their envelope MINDIST lower bound so the collector's
//     pruning bound tightens as early as possible, and
//   - skips any unit whose bound already exceeds the collector's current
//     worst (SkipSq on either collector), or is +Inf (an empty or
//     window-disjoint unit).
//
// Both transformations are answer-preserving: the per-unit envelope bound
// is never larger than the per-entry bound the probe itself would have
// pruned with, and the collectors are order-independent (deterministic
// (distance, id) ordering), so planned and unplanned searches return
// byte-identical results. Tests assert this exactly.
//
// A search has one planner, on its context (SearchCtx.Planner), and one
// record of what it probed and skipped (SearchCtx.Tally). ProbeUnits is the
// only place that sorts a plan or counts a probe unit; page-level skipping —
// a CTree's leaves, a run's or partition's pages — is a run-length-aware
// algorithm under the same planner, counted into the same record, in the one
// page loop (run.Store.Scan). Every view of a search's planning — its
// response, its trace, a build's running total — reads that one record.
// What an index variant contributes is how to bound a unit and how to probe
// it.

// PlanUnit pairs a probe unit's index in the caller's unit list with its
// squared envelope lower bound, for sorting into probe order.
type PlanUnit struct {
	BoundSq float64
	Idx     int
}

// PlanUnits returns a reusable []PlanUnit of length n from the context —
// the plan buffer ProbeUnits fills and sorts — so planning a probe order
// allocates nothing on the warm path.
func (c *SearchCtx) PlanUnits(n int) []PlanUnit {
	return planBuf(&c.plan, n)
}

// OuterPlanUnits is PlanUnits from a second, independent buffer. The sharded
// fan-out plans shard probes with the same context it then hands to each
// shard's inner index — whose own run/partition/leaf planning reuses the
// primary buffer. Two buffers keep the nested plans from aliasing.
func (c *SearchCtx) OuterPlanUnits(n int) []PlanUnit {
	return planBuf(&c.outerPlan, n)
}

func planBuf(buf *[]PlanUnit, n int) []PlanUnit {
	if cap(*buf) < n {
		*buf = make([]PlanUnit, n)
	}
	return (*buf)[:n]
}

// SortPlan orders units by ascending (BoundSq, Idx). Unit counts are small
// (runs, partitions, shards), so an insertion sort wins — and unlike
// sort.Slice it allocates nothing, which keeps the warm planned probe path
// at 0 allocs/op.
func SortPlan(units []PlanUnit) {
	for i := 1; i < len(units); i++ {
		u := units[i]
		j := i - 1
		for j >= 0 && (units[j].BoundSq > u.BoundSq ||
			(units[j].BoundSq == u.BoundSq && units[j].Idx > u.Idx)) {
			units[j+1] = units[j]
			j--
		}
		units[j+1] = u
	}
}

// UnitBoundSq returns the squared lower bound between q and every entry in
// the probe unit summarized by syn: +Inf (nothing to find: always
// skippable) for a unit whose time range misses q's window or that is
// empty, 0 (no bound: always probe) for a shape-mismatched synopsis.
func (p *Pruner) UnitBoundSq(q Query, syn *zonestat.Synopsis) float64 {
	switch {
	case q.Windowed && !syn.IntersectsWindow(q.MinTS, q.MaxTS):
		return math.Inf(1)
	case syn.Segments != p.segments || syn.Bits != p.bits:
		return 0
	case syn.Count == 0:
		return math.Inf(1)
	}
	return p.EnvelopeSq(syn.MinSym, syn.MaxSym)
}

// Planner is a search's planning switch. No index holds one; a search
// reaches it through its context, so one planner governs every level of a
// composition. A nil Planner behaves like an enabled one. One Planner may
// serve any number of searches at once (assemble.Built holds one per build).
type Planner struct {
	// Disabled selects the reference path — unplanned probe order, no unit
	// skipped, every page a scan reaches read — that the equivalence suites
	// hold planned answers and io-cost to. No option sets it: they set it on
	// a build's planner after the build, before searching.
	Disabled bool
}

// Enabled reports whether probe ordering and unit skipping should run.
func (pl *Planner) Enabled() bool { return pl == nil || !pl.Disabled }

// note records one unit as probed or skipped, in the search's record and,
// with its bound, in its trace.
func (c *SearchCtx) note(kind obs.Kind, u PlanUnit, skipped bool) {
	if skipped {
		c.Tally.Note(kind, 0, 1)
	} else {
		c.Tally.Note(kind, 1, 0)
	}
	c.Trace.NoteUnit(kind, u.Idx, u.BoundSq, skipped)
}

// skippable reports whether a unit lower-bounded by boundSq cannot change
// col: +Inf marks a unit with nothing to find (empty, or outside the query
// window), which holds even while a k-NN collector is not yet full.
func skippable(col *Collector, boundSq float64) bool {
	return math.IsInf(boundSq, 1) || col.SkipSq(boundSq)
}

// ProbeUnits probes the units of one kind (runs, partitions, shards) into
// col on ctx's pool and planner, counting each into ctx's record and trace;
// units is the plan buffer, one slot a unit (ctx.PlanUnits or
// OuterPlanUnits). bound(i) is unit i's squared envelope lower bound (0 =
// unknown, +Inf = nothing to find); probe(i, worker, col) searches unit i
// into the collector it is handed, as worker slot worker of ctx's pool.
//
// With one usable worker, units are probed straight into col in ascending
// (bound, index) order, each checked against col right before its probe:
// bounds ascend and the collector's worst only tightens, so the first
// skippable unit is the last one probed. A range collector's bound never
// moves, so its units keep index order. With several workers, units already
// skippable against col are dropped up front, and each worker re-checks a
// unit against its own clone right before probing it — a clone's worst is
// never tighter than the final merged worst, so a late skip only drops
// candidates the merge would reject anyway.
//
// With the planner disabled every unit is probed through the plain FanOut:
// the reference path the equivalence suites compare against.
func ProbeUnits(ctx *SearchCtx, kind obs.Kind, units []PlanUnit, col *Collector, bound func(i int) float64, probe func(i, worker int, col *Collector) error) error {
	if !ctx.Planner.Enabled() {
		ctx.Tally.Note(kind, int64(len(units)), 0)
		return FanOut(ctx.Pool, len(units), col, probe)
	}
	for i := range units {
		units[i] = PlanUnit{BoundSq: bound(i), Idx: i}
	}
	if !col.BoundFixed() {
		SortPlan(units)
	}
	if ctx.Pool.WorkersFor(len(units)) <= 1 {
		for _, u := range units {
			if err := probeUnit(ctx, kind, u, 0, col, probe); err != nil {
				return err
			}
		}
		return nil
	}
	live := units[:0]
	for _, u := range units {
		if skippable(col, u.BoundSq) {
			ctx.note(kind, u, true)
			continue
		}
		live = append(live, u)
	}
	return FanOut(ctx.Pool, len(live), col, func(i, worker int, col *Collector) error {
		return probeUnit(ctx, kind, live[i], worker, col, probe)
	})
}

// probeUnit checks u against col right before probing it, and records
// which of the two happened.
func probeUnit(ctx *SearchCtx, kind obs.Kind, u PlanUnit, worker int, col *Collector, probe func(i, worker int, col *Collector) error) error {
	skip := skippable(col, u.BoundSq)
	ctx.note(kind, u, skip)
	if skip {
		return nil
	}
	return probe(u.Idx, worker, col)
}
