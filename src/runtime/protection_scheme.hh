/**
 * @file
 * ProtectionScheme: a first-class memory-safety backend.
 *
 * Historically a scheme was a bag of flags on SchemeConfig plus a
 * switch in sim::System picking the allocator. Each backend is now
 * one object that supplies everything the rest of the stack needs:
 *   - baseConfig(): the SchemeConfig flag preset it runs under,
 *   - instantiate(): its allocator model plus (for pointer-tagging
 *     schemes) the AccessPolicy hardware check predicate,
 *   - instrument(): its compile-time instrumentation pass,
 *   - declaredProfile(): the detection verdicts it claims, scenario
 *     by scenario — the conformance suite and the measured Table III
 *     harness hold every backend to this declaration,
 *   - hardwareCost(): the metadata/logic cost descriptor.
 *
 * Backends are registered by name ("plain", "asan", "rest", "mte",
 * "pauth"); parseSchemeSpec() composes the registry with the
 * +elide/+hoist/+coalesce instrumentation suffixes used across the
 * bench harnesses.
 */

#ifndef REST_RUNTIME_PROTECTION_SCHEME_HH
#define REST_RUNTIME_PROTECTION_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "core/rest_engine.hh"
#include "mem/guest_memory.hh"
#include "runtime/access_policy.hh"
#include "runtime/allocator.hh"
#include "runtime/instrumentation.hh"
#include "runtime/runtime_config.hh"

namespace rest::runtime
{

/** Expected verdict for one attack scenario. */
enum class Expect : std::uint8_t
{
    Caught,        ///< the scheme must detect this scenario
    Missed,        ///< the scheme must not detect it (documented gap)
    SeedDependent, ///< detection is probabilistic (e.g. 4-bit tags)
};

const char *expectName(Expect e);

/**
 * Declared detection verdicts over the shared attack-scenario matrix
 * (sim/scheme_matrix.hh runs the scenarios and checks conformance).
 */
struct DetectionProfile
{
    Expect linearOverflow = Expect::Missed;
    Expect jumpOverRedzone = Expect::Missed;
    Expect pointerDiffJump = Expect::Missed;
    Expect pointerCorruption = Expect::Missed;
    Expect uafQuarantined = Expect::Missed;
    Expect uafRecycled = Expect::Missed;
    Expect doubleFree = Expect::Missed;
    Expect stackOverflow = Expect::Missed;
    Expect uninstrumentedLibrary = Expect::Missed;

    // Concurrency scenarios, measured on the multicore machine
    // (sim/multicore.hh): the access that should trap happens on a
    // different core — and through a different private L1 — than the
    // allocation/free that armed the trap.
    Expect crossThreadUaf = Expect::Missed;
    Expect racyDoubleFree = Expect::Missed;
    Expect handoffOverflow = Expect::Missed;
};

/** Hardware cost descriptor (the Table III "HW cost" column). */
struct HardwareCost
{
    std::string summary;             ///< human-readable description
    double metadataBitsPerDataByte = 0.0;
    std::string overheadClass;       ///< Table III bucket
    /** Metadata lives in the program's address space (ASan's shadow),
     *  as opposed to cache tags, out-of-band tag storage, or pointer
     *  bits — the Table III "Shadow" column. */
    bool usesShadowSpace = false;
};

/** Everything a backend needs to build its runtime components. */
struct SchemeContext
{
    mem::GuestMemory &memory;
    core::RestEngine &engine;
    const SchemeConfig &scheme;
    std::uint64_t seed;
};

/** The per-run components a backend instantiates. */
struct SchemeParts
{
    std::unique_ptr<Allocator> allocator;
    /**
     * Per-access check predicate, or null for schemes whose detection
     * the emulator already evaluates inline (REST tokens, ASan
     * shadow). Non-owning: points into the allocator object.
     */
    const AccessPolicy *policy = nullptr;
};

/** One registered memory-safety backend. */
class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    /** Registry name ("plain", "asan", "rest", "mte", "pauth"). */
    virtual const char *id() const = 0;
    virtual const char *description() const = 0;

    /** The SchemeConfig preset this backend runs under. */
    virtual SchemeConfig baseConfig() const = 0;

    /** Build the allocator (+ optional access policy) for one run. */
    virtual SchemeParts instantiate(const SchemeContext &ctx) const = 0;

    virtual DetectionProfile declaredProfile() const = 0;
    virtual HardwareCost hardwareCost() const = 0;

    /**
     * Compile-time instrumentation for this backend. The default is
     * the shared applyScheme() pass driven by the SchemeConfig flags;
     * pure allocator/hardware schemes (rest, mte, pauth) leave the
     * program untouched through it.
     */
    virtual InstrumentationSummary
    instrument(isa::Program &program, const SchemeConfig &scheme,
               unsigned token_granule) const
    {
        return applyScheme(program, scheme, token_granule);
    }
};

/** All registered backends, in canonical display order. */
const std::vector<const ProtectionScheme *> &allSchemes();

/** Lookup by registry id; nullptr when unknown. */
const ProtectionScheme *findScheme(const std::string &id);

/** The backend responsible for a config's allocator kind. */
const ProtectionScheme &schemeForConfig(const SchemeConfig &cfg);

/**
 * Parse a scheme spec "<id>[+elide][+hoist][+coalesce]" into a
 * SchemeConfig. The optimisation
 * suffixes compose only over backends whose baseConfig() enables
 * shadow access checks.
 * @return false (with 'error' set) on an unknown id or bad suffix.
 */
bool parseSchemeSpec(const std::string &spec, SchemeConfig &out,
                     std::string &error);

} // namespace rest::runtime

#endif // REST_RUNTIME_PROTECTION_SCHEME_HH
