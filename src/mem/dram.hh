/**
 * @file
 * A simple fixed-latency, bandwidth-limited DRAM model (Table II).
 */

#ifndef REST_MEM_DRAM_HH
#define REST_MEM_DRAM_HH

#include <algorithm>
#include <cstdint>

#include "mem/cache_config.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rest::mem
{

/** Shared interface: anything a cache can sit on top of. */
class MemoryDevice
{
  public:
    virtual ~MemoryDevice() = default;

    /**
     * Perform a block access.
     * @param line_addr block-aligned address.
     * @param is_write true for writebacks / stores reaching this level.
     * @param now cycle the request arrives.
     * @return the cycle the request completes (data available).
     */
    virtual Cycles access(Addr line_addr, bool is_write, Cycles now) = 0;
};

/** Fixed-latency DRAM with a single-channel bandwidth constraint. */
class Dram : public MemoryDevice
{
  public:
    explicit Dram(const DramConfig &cfg = {})
        : cfg_(cfg), stats_("dram"),
          reads_(stats_.addScalar("reads", "read requests serviced")),
          writes_(stats_.addScalar("writes", "write requests serviced")),
          queueCycles_(stats_.addScalar("queue_cycles",
                                        "cycles spent queueing"))
    {}

    Cycles
    access(Addr, bool is_write, Cycles now) override
    {
        Cycles start = std::max(now, nextFree_);
        queueCycles_ += start - now;
        nextFree_ = start + cfg_.servicePeriod;
        if (is_write)
            ++writes_;
        else
            ++reads_;
        return start + cfg_.accessLatency;
    }

    const stats::StatGroup &statGroup() const { return stats_; }
    stats::StatGroup &statGroup() { return stats_; }

  private:
    DramConfig cfg_;
    Cycles nextFree_ = 0;
    stats::StatGroup stats_;
    stats::Scalar &reads_;
    stats::Scalar &writes_;
    stats::Scalar &queueCycles_;
};

} // namespace rest::mem

#endif // REST_MEM_DRAM_HH
