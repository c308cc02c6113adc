#include "cpu/bpred.hh"

#include <algorithm>

namespace rest::cpu
{

namespace
{

/** Geometric history length series, L-TAGE style (min 4, max ~640). */
constexpr std::array<unsigned, TagePredictor::numTagged> histSeries = {
    4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640,
};

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

} // namespace

TagePredictor::TagePredictor()
    : bimodal_(1u << bimodalBits, 0), histLens_(histSeries)
{
    static_assert(histSeries.back() < ghistLen);
    for (auto &table : tagged_)
        table.assign(1u << taggedBits, {});
    for (unsigned t = 0; t < numTagged; ++t) {
        foldedIdx_[t].init(histLens_[t], taggedBits);
        foldedTag_[t].init(histLens_[t], tagBits);
    }
}

void
TagePredictor::Folded::init(unsigned orig_len, unsigned comp_len)
{
    olen = orig_len;
    clen = comp_len;
    outPoint = olen % clen;
    comp = 0;
}

void
TagePredictor::Folded::push(bool new_bit, bool out_bit)
{
    comp = (comp << 1) | (new_bit ? 1 : 0);
    comp ^= (out_bit ? 1ull : 0ull) << outPoint;
    comp ^= comp >> clen;
    comp &= (1ull << clen) - 1;
}

void
TagePredictor::pushHistory(bool bit)
{
    for (unsigned t = 0; t < numTagged; ++t) {
        // The bit falling out of this table's history window.
        bool out_bit = ghist_[(ghistPos_ - histLens_[t]) & (ghistLen - 1)];
        foldedIdx_[t].push(bit, out_bit);
        foldedTag_[t].push(bit, out_bit);
    }
    ghist_[ghistPos_] = bit;
    ghistPos_ = (ghistPos_ + 1) & (ghistLen - 1);
}

unsigned
TagePredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & ((1u << bimodalBits) - 1));
}

unsigned
TagePredictor::taggedIndex(Addr pc, unsigned table) const
{
    return static_cast<unsigned>(
        (mix(pc >> 2) ^ foldedIdx_[table].comp ^ (table * 0x9e37u)) &
        ((1u << taggedBits) - 1));
}

std::uint16_t
TagePredictor::taggedTag(Addr pc, unsigned table) const
{
    return static_cast<std::uint16_t>(
        (mix(pc) ^ (foldedTag_[table].comp << 1) ^ table) &
        ((1u << tagBits) - 1));
}

bool
TagePredictor::lookup(Addr pc, int &provider, int &alt_pred) const
{
    provider = -1;
    int alt_provider = -1;
    for (int t = numTagged - 1; t >= 0; --t) {
        const auto &e = tagged_[t][taggedIndex(pc, t)];
        if (e.tag == taggedTag(pc, t)) {
            if (provider < 0) {
                provider = t;
            } else if (alt_provider < 0) {
                alt_provider = t;
                break;
            }
        }
    }

    bool bim = bimodal_[bimodalIndex(pc)] >= 0;
    alt_pred = alt_provider >= 0
        ? (tagged_[alt_provider][taggedIndex(pc, alt_provider)].ctr >= 0)
        : bim;

    if (provider < 0)
        return bim;
    const auto &e = tagged_[provider][taggedIndex(pc, provider)];
    // "Use alternate on newly allocated" heuristic: weak counters with
    // no proven usefulness fall back to the alternate prediction.
    bool weak = (e.ctr == 0 || e.ctr == -1) && e.useful == 0;
    if (weak && useAltOnNa_ >= 8)
        return alt_pred != 0;
    return e.ctr >= 0;
}

bool
TagePredictor::predict(Addr pc)
{
    int provider, alt;
    return lookup(pc, provider, alt);
}

void
TagePredictor::allocate(Addr pc, bool taken, int provider)
{
    // Allocate in a longer-history table than the provider.
    for (unsigned t = provider + 1; t < numTagged; ++t) {
        auto &e = tagged_[t][taggedIndex(pc, t)];
        if (e.useful == 0) {
            e.tag = taggedTag(pc, t);
            e.ctr = taken ? 0 : -1;
            return;
        }
    }
    // No free slot: decay usefulness along the way.
    for (unsigned t = provider + 1; t < numTagged; ++t) {
        auto &e = tagged_[t][taggedIndex(pc, t)];
        if (e.useful > 0)
            --e.useful;
    }
}

bool
TagePredictor::update(Addr pc, bool taken)
{
    int provider, alt_i;
    bool pred = lookup(pc, provider, alt_i);
    bool alt_pred = alt_i != 0;
    bool correct = (pred == taken);

    if (provider >= 0) {
        auto &e = tagged_[provider][taggedIndex(pc, provider)];
        bool provider_pred = e.ctr >= 0;
        if (provider_pred != alt_pred) {
            if (provider_pred == taken) {
                if (e.useful < 3)
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
            // Track whether the alternate tends to beat weak entries.
            bool weak = (e.ctr == 0 || e.ctr == -1) && e.useful == 0;
            if (weak) {
                if (alt_pred == taken && useAltOnNa_ < 15)
                    ++useAltOnNa_;
                else if (alt_pred != taken && useAltOnNa_ > 0)
                    --useAltOnNa_;
            }
        }
        if (taken) {
            if (e.ctr < 3)
                ++e.ctr;
        } else {
            if (e.ctr > -4)
                --e.ctr;
        }
        if (provider_pred != taken)
            allocate(pc, taken, provider);
    } else {
        auto &c = bimodal_[bimodalIndex(pc)];
        if (taken) {
            if (c < 1)
                ++c;
        } else {
            if (c > -2)
                --c;
        }
        if ((c >= 0) != taken || pred != taken)
            allocate(pc, taken, -1);
    }

    pushHistory(taken);
    return correct;
}

void
TagePredictor::recordUnconditional(Addr pc, bool taken)
{
    pushHistory(taken ^ (((pc >> 3) & 1) != 0));
}

} // namespace rest::cpu
