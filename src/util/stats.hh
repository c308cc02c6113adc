/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Components register named statistics with a StatGroup; the group can
 * be dumped in a stable, machine-parsable "name value # desc" format.
 * Three kinds are provided:
 *   - Scalar:    a named 64-bit counter (also usable as a gauge),
 *   - Distribution: a bucketed histogram with min/max/mean tracking,
 *   - Formula:   a derived value computed at dump time.
 */

#ifndef REST_UTIL_STATS_HH
#define REST_UTIL_STATS_HH

#include <cstdint>
#include <functional>
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
 * A bucketed histogram with running sum for the mean.
 *
 * Bucketing convention (deterministic, relied on by tests):
 *   - `upper_edges` are *inclusive* upper bounds in strictly
 *     ascending order: a sample lands in the first bucket whose edge
 *     is >= the value (so a value exactly on an edge lands in that
 *     edge's bucket, never the next one).
 *   - Values above the last edge land in the final overflow bucket,
 *     so buckets() always has edges().size() + 1 entries and every
 *     sample is counted in exactly one bucket.
 */
class Distribution
{
  public:
    /** Configure with bucket boundaries (inclusive upper edges,
     *  strictly ascending — non-ascending edges are a caller bug). */
    void
    init(std::vector<std::uint64_t> upper_edges)
    {
        for (std::size_t i = 1; i < upper_edges.size(); ++i) {
            rest_assert(upper_edges[i - 1] < upper_edges[i],
                        "distribution edges must be strictly "
                        "ascending");
        }
        edges_ = std::move(upper_edges);
        buckets_.assign(edges_.size() + 1, 0);
    }

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        if (buckets_.empty()) {
            // Never init()ed: behave as a single overflow bucket so
            // every sample is still counted deterministically.
            buckets_.assign(1, 0);
        }
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_) min_ = v;
        if (v > max_) max_ = v;
        std::size_t i = 0;
        while (i < edges_.size() && v > edges_[i])
            ++i;
        ++buckets_[i];
    }

    void
    reset()
    {
        count_ = sum_ = min_ = max_ = 0;
        buckets_.assign(buckets_.size(), 0);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::vector<std::uint64_t> &edges() const { return edges_; }

    /**
     * The p-th percentile (p in [0, 100]) as a bucket-resolution
     * estimate: the inclusive upper edge of the bucket holding the
     * ceil(p/100 * count)-th smallest sample, clamped to the observed
     * [min, max] range so percentile(0) == minValue(),
     * percentile(100) == maxValue(), and a rank landing in the
     * overflow bucket reports maxValue() rather than infinity.
     * An empty distribution yields 0.
     */
    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        if (p <= 0.0)
            return double(min_);
        if (p >= 100.0)
            return double(max_);
        // ceil without FP rounding surprises: rank in [1, count].
        std::uint64_t rank = std::uint64_t((p / 100.0) * double(count_));
        if (double(rank) < (p / 100.0) * double(count_))
            ++rank;
        if (rank == 0)
            rank = 1;
        if (rank > count_)
            rank = count_;
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            cum += buckets_[i];
            if (cum < rank)
                continue;
            if (i >= edges_.size())
                return double(max_); // overflow bucket
            double edge = double(edges_[i]);
            if (edge > double(max_))
                edge = double(max_);
            if (edge < double(min_))
                edge = double(min_);
            return edge;
        }
        return double(max_); // unreachable: cum == count_ >= rank
    }

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** A derived statistic evaluated lazily at dump time. */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    void set(std::function<double()> fn) { fn_ = std::move(fn); }
    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
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

    /** Register a distribution under this group. */
    Distribution &
    addDistribution(const std::string &stat, const std::string &desc,
                    std::vector<std::uint64_t> edges)
    {
        auto [it, inserted] = dists_.try_emplace(stat);
        rest_assert(inserted, "duplicate dist stat ", name_, ".", stat);
        it->second.init(std::move(edges));
        descs_[stat] = desc;
        return it->second;
    }

    /** Register a formula under this group. */
    Formula &
    addFormula(const std::string &stat, const std::string &desc,
               std::function<double()> fn)
    {
        auto [it, inserted] = formulas_.try_emplace(stat,
                                                    Formula(std::move(fn)));
        rest_assert(inserted, "duplicate formula stat ", name_, ".", stat);
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
        for (auto &kv : dists_)
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
    std::map<std::string, Distribution> dists_;
    std::map<std::string, Formula> formulas_;
    std::map<std::string, std::string> descs_;

    std::uint64_t snapEvery_ = 0;
    Cycles nextSnapAt_ = 0;
    std::map<std::string, std::uint64_t> lastSnapValues_;
    std::vector<StatSnapshot> snapshots_;
};

} // namespace rest::stats

#endif // REST_UTIL_STATS_HH
