#include "cpu/bpred.hh"

#include <utility>

namespace rest::cpu
{

namespace
{

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

/**
 * Shift 'in' into a folded register of 'clen' bits whose history
 * window drops 'out' at bit 'out_point' (its length mod clen).
 */
template <unsigned clen, unsigned out_point>
std::uint32_t
fold(std::uint32_t comp, bool in, bool out)
{
    comp = (comp << 1) | static_cast<std::uint32_t>(in);
    comp ^= static_cast<std::uint32_t>(out) << out_point;
    comp ^= comp >> clen;
    return comp & ((1u << clen) - 1);
}

} // namespace

TagePredictor::TagePredictor() : bimodal_(1u << bimodalBits, 0)
{
    for (auto &table : tagged_)
        table.assign(1u << taggedBits, {});
}

template <unsigned T>
void
TagePredictor::pushTable(bool bit)
{
    constexpr unsigned len = histLens[T];
    // The bit falling out of this table's history window.
    const bool out_bit = ghist_[(ghistPos_ - len) & (ghistLen - 1)];
    foldedIdx_[T] =
        fold<taggedBits, len % taggedBits>(foldedIdx_[T], bit, out_bit);
    foldedTag_[T] =
        fold<tagBits, len % tagBits>(foldedTag_[T], bit, out_bit);
}

void
TagePredictor::pushHistory(bool bit)
{
    [&]<unsigned... T>(std::integer_sequence<unsigned, T...>) {
        (pushTable<T>(bit), ...);
    }(std::make_integer_sequence<unsigned, numTagged>{});
    ghist_[ghistPos_] = bit;
    ghistPos_ = (ghistPos_ + 1) & (ghistLen - 1);
}

TagePredictor::Indices
TagePredictor::indices(Addr pc) const
{
    Indices ix;
    ix.bimodal =
        static_cast<unsigned>((pc >> 2) & ((1u << bimodalBits) - 1));
    const std::uint64_t index_hash = mix(pc >> 2);
    const std::uint64_t tag_hash = mix(pc);
    for (unsigned t = 0; t < numTagged; ++t) {
        ix.index[t] = static_cast<std::uint16_t>(
            (index_hash ^ foldedIdx_[t] ^ (t * 0x9e37u)) &
            ((1u << taggedBits) - 1));
        ix.tag[t] = static_cast<std::uint16_t>(
            (tag_hash ^ (foldedTag_[t] << 1) ^ t) & ((1u << tagBits) - 1));
    }
    return ix;
}

bool
TagePredictor::lookup(const Indices &ix, int &provider,
                      int &alt_pred) const
{
    provider = -1;
    int alt_provider = -1;
    for (int t = numTagged - 1; t >= 0; --t) {
        const auto &e = tagged_[t][ix.index[t]];
        if (e.tag == ix.tag[t]) {
            if (provider < 0) {
                provider = t;
            } else if (alt_provider < 0) {
                alt_provider = t;
                break;
            }
        }
    }

    bool bim = bimodal_[ix.bimodal] >= 0;
    alt_pred = alt_provider >= 0
        ? (tagged_[alt_provider][ix.index[alt_provider]].ctr >= 0)
        : bim;

    if (provider < 0)
        return bim;
    const auto &e = tagged_[provider][ix.index[provider]];
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
    return lookup(indices(pc), provider, alt);
}

void
TagePredictor::allocate(const Indices &ix, bool taken, int provider)
{
    // Allocate in a longer-history table than the provider.
    for (unsigned t = provider + 1; t < numTagged; ++t) {
        auto &e = tagged_[t][ix.index[t]];
        if (e.useful == 0) {
            e.tag = ix.tag[t];
            e.ctr = taken ? 0 : -1;
            return;
        }
    }
    // No free slot: decay usefulness along the way.
    for (unsigned t = provider + 1; t < numTagged; ++t) {
        auto &e = tagged_[t][ix.index[t]];
        if (e.useful > 0)
            --e.useful;
    }
}

bool
TagePredictor::update(Addr pc, bool taken)
{
    const Indices ix = indices(pc);
    int provider, alt_i;
    bool pred = lookup(ix, provider, alt_i);
    bool alt_pred = alt_i != 0;
    bool correct = (pred == taken);

    if (provider >= 0) {
        auto &e = tagged_[provider][ix.index[provider]];
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
            allocate(ix, taken, provider);
    } else {
        auto &c = bimodal_[ix.bimodal];
        if (taken) {
            if (c < 1)
                ++c;
        } else {
            if (c > -2)
                --c;
        }
        if ((c >= 0) != taken || pred != taken)
            allocate(ix, taken, -1);
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
