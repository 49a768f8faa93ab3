package core

import (
	"errors"

	"paragraph/internal/budget"
	"paragraph/internal/stats"
)

// Shard support: the placement state of a dependency analysis (slot tables,
// window, predictor, scalars) must flow through shards serially via
// checkpoint handoff, but the statistics the analysis accumulates —
// parallelism and storage profiles, lifetime and sharing distributions,
// governor accounting — are write-only and order-independent, so each shard
// can report just its own contribution and a merger can reassemble the
// whole-trace totals exactly. BeginShard zeroes those accumulators at a
// shard boundary; ShardStats harvests the shard's contribution.

// ShardStats is one shard's contribution to the mergeable statistics of an
// analysis. Histogram and distribution fields use the exported State forms,
// which gob round-trips exactly, so shard results can cross process and
// machine boundaries without drift.
type ShardStats struct {
	// Profile and Storage are nil when the corresponding collection is
	// disabled in the config.
	Profile  *stats.LevelHistogramState
	Storage  *stats.LevelHistogramState
	Lifetime stats.LogDistState
	Sharing  stats.LogDistState
	// Governor is nil when no memory budget is configured.
	Governor *budget.GovernorStats
}

// BeginShard marks a shard boundary: it resets the mergeable accumulators
// so the next ShardStats call reports only this shard's contribution.
// Placement state (slots, window, predictor, governor policy and effective
// window) is untouched — that state must flow through shards serially, via
// Snapshot/Restore. Call it before replaying each shard's events, including
// the first.
func (a *Analyzer) BeginShard() error {
	if a.finished {
		return errors.New("core: BeginShard after Finish")
	}
	if a.deaths != nil {
		return errors.New("core: sharded analysis is single-pass; a death schedule needs whole-trace knowledge")
	}
	if err := a.flush(); err != nil {
		return err
	}
	if a.profile != nil {
		a.profile = stats.NewLevelHistogram(a.cfg.ProfileBuckets)
	}
	if a.storage != nil {
		a.storage = stats.NewLevelHistogram(a.cfg.ProfileBuckets)
	}
	a.lifetimes = stats.LogDist{}
	a.sharing = stats.LogDist{}
	if a.gov != nil {
		// Govern never reads its accumulated stats, so resetting them is
		// behaviorally transparent; the merger sums counters and maxes
		// peaks back into whole-run totals.
		a.gov.RestoreStats(budget.GovernorStats{})
	}
	return nil
}

// ShardStats replays the pending records and harvests the accumulators
// since the last BeginShard. For the final shard, call it after Finish so
// end-of-trace retirements (still-live values folded into the
// lifetime/sharing distributions) are included.
func (a *Analyzer) ShardStats() ShardStats {
	_ = a.flush() // a failure stays in the analyzer for the next Event or Finish
	st := ShardStats{Lifetime: a.lifetimes.State(), Sharing: a.sharing.State()}
	if a.profile != nil {
		s := a.profile.State()
		st.Profile = &s
	}
	if a.storage != nil {
		s := a.storage.State()
		st.Storage = &s
	}
	if a.gov != nil {
		s := a.gov.Stats()
		st.Governor = &s
	}
	return st
}
