/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components register named statistics with a StatGroup; the group can
 * be dumped in a stable, machine-parsable "name value # desc" format.
 * Every statistic is a Scalar: a named 64-bit counter (also usable as
 * a gauge).
 */

#ifndef REST_UTIL_STATS_HH
#define REST_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace rest::stats
{

/** A named 64-bit counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * One periodic snapshot of a StatGroup: the cycle it was taken at and
 * the per-scalar deltas accumulated since the previous snapshot.
 * A time series of these is the `stat_series` stream in sweep results
 * and the counter tracks in Chrome-trace output (rest::trace).
 */
struct StatSnapshot
{
    Cycles cycle = 0;
    /** "group.stat" -> increment over the preceding interval. */
    std::map<std::string, std::uint64_t> deltas;
};

/**
 * A registry of named statistics belonging to one simulated component.
 * Groups can nest via dotted prefixes supplied by the owner.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under this group; returns a reference. */
    Scalar &
    addScalar(const std::string &stat, const std::string &desc)
    {
        auto [it, inserted] = scalars_.try_emplace(stat);
        rest_assert(inserted, "duplicate scalar stat ", name_, ".", stat);
        descs_[stat] = desc;
        return it->second;
    }

    /** Look up a scalar's current value (0 if absent). */
    std::uint64_t
    scalarValue(const std::string &stat) const
    {
        auto it = scalars_.find(stat);
        return it == scalars_.end() ? 0 : it->second.value();
    }

    /**
     * Visit every scalar as ("group.stat", value), in stable
     * (lexicographic) order — the results layer snapshots components'
     * counters through this before a System is torn down.
     */
    template <typename Fn>
    void
    forEachScalar(Fn &&fn) const
    {
        for (const auto &[stat, scalar] : scalars_)
            fn(name_ + "." + stat, scalar.value());
    }

    /** Reset every statistic in the group. */
    void
    resetAll()
    {
        for (auto &kv : scalars_)
            kv.second.reset();
    }

    /** Dump all stats in "group.stat  value  # desc" format. */
    void dump(std::ostream &os) const;

    // --- periodic snapshots (rest::trace metrics layer) ---------------

    /**
     * Enable periodic snapshotting every `n_cycles` (0 disables).
     * The group does not own a clock: the owner's timing loop (or a
     * trace::TraceSink it is registered with) drives time by calling
     * maybeSnapshot(now).
     */
    void
    dumpEvery(std::uint64_t n_cycles)
    {
        snapEvery_ = n_cycles;
        nextSnapAt_ = n_cycles;
    }

    /** Is periodic snapshotting enabled? */
    std::uint64_t snapshotPeriod() const { return snapEvery_; }

    /**
     * Take a snapshot if `now` has reached the next boundary. A single
     * compare when disabled or before the boundary; intervals the
     * clock jumps clean over collapse into one snapshot at `now`.
     */
    void
    maybeSnapshot(Cycles now)
    {
        if (snapEvery_ == 0 || now < nextSnapAt_)
            return;
        takeSnapshot(now);
        nextSnapAt_ = (now / snapEvery_ + 1) * snapEvery_;
    }

    /**
     * Unconditionally snapshot at `now` (used to flush the final
     * partial interval). Records every scalar's delta since the
     * previous snapshot; a duplicate call at the same cycle is a
     * no-op.
     */
    void
    takeSnapshot(Cycles now)
    {
        if (!snapshots_.empty() && snapshots_.back().cycle == now)
            return;
        StatSnapshot snap;
        snap.cycle = now;
        for (const auto &[stat, scalar] : scalars_) {
            std::uint64_t prev = lastSnapValues_[stat];
            snap.deltas[name_ + "." + stat] = scalar.value() - prev;
            lastSnapValues_[stat] = scalar.value();
        }
        snapshots_.push_back(std::move(snap));
    }

    /** The time series collected so far. */
    const std::vector<StatSnapshot> &snapshots() const
    { return snapshots_; }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, std::string> descs_;

    std::uint64_t snapEvery_ = 0;
    Cycles nextSnapAt_ = 0;
    std::map<std::string, std::uint64_t> lastSnapValues_;
    std::vector<StatSnapshot> snapshots_;
};

} // namespace rest::stats

#endif // REST_UTIL_STATS_HH
