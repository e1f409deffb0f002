#include "approx/di_vaxx.h"

#include <algorithm>

#include "common/log.h"

namespace approxnoc {

VaxxEncoderTable::VaxxEncoderTable(std::size_t entries, std::size_t n_nodes,
                                   ReplacementPolicy policy)
    : tcam_(entries, policy), n_nodes_(n_nodes),
      types_(entries, DataType::Raw), mappings_(entries * n_nodes),
      mapped_(entries, 0)
{}

void
VaxxEncoderTable::record(const TernaryPattern &tp, DataType type,
                         NodeId decoder, std::uint8_t index, Word original)
{
    std::size_t slot = tcam_.victimFor(tp);
    bool evicting = tcam_.valid(slot) && !(tcam_.pattern(slot) == tp);
    if (evicting && mapped_[slot] > 0) {
        auto first = mappings_.begin() +
                     static_cast<std::ptrdiff_t>(slot * n_nodes_);
        std::fill(first, first + static_cast<std::ptrdiff_t>(n_nodes_),
                  Mapping{});
        mapped_[slot] = 0;
    }
    std::size_t got = tcam_.insert(tp);
    ANOC_ASSERT(got == slot, "encoder TCAM victim selection diverged");
    types_[slot] = type;
    Mapping &m = mappings_[slot * n_nodes_ + decoder];
    if (!m.valid)
        ++mapped_[slot];
    m = Mapping{original, index, true};
}

void
VaxxEncoderTable::invalidate(NodeId decoder, std::uint8_t index)
{
    for (std::size_t s = 0; s < tcam_.capacity(); ++s) {
        Mapping &m = mappings_[s * n_nodes_ + decoder];
        if (m.valid && m.index == index) {
            m = Mapping{};
            if (--mapped_[s] == 0)
                tcam_.erase(s);
        }
    }
}

DiVaxxCodec::DiVaxxCodec(const DictionaryConfig &cfg, const ErrorModel &model,
                         VaxxPlacement placement)
    : DictionaryCodecBase(cfg), avcl_(model), placement_(placement)
{
    encoders_.reserve(cfg.n_nodes);
    for (std::size_t i = 0; i < cfg.n_nodes; ++i)
        encoders_.emplace_back(cfg.pmt_entries, cfg.n_nodes, cfg.policy);
    preloadEncoders();
}

EncodedWord
DiVaxxCodec::encodeOne(VaxxEncoderTable &e, Word w, DataType type,
                       bool approx_ok, NodeId dst)
{
    EncodedWord ew;
    bool compressed = false;
    // One TCAM access per word (counts towards the power model). The
    // bit-sliced probe hands us the matches in priority order, so
    // finding the first entry with a usable mapping for dst costs a
    // single search instead of a search plus a full-match sweep.
    e.tcam().searchVisit(w, [&](std::size_t slot) {
        const VaxxEncoderTable::Mapping &de = e.mapping(slot, dst);
        if (!de.valid)
            return false;
        // Approximate hit: allowed only for approximable data of the
        // same type the pattern was learned from (masks are only valid
        // within one type's semantics). Exact hit: always allowed.
        bool exact = de.original == w;
        if (!exact && (!approx_ok || e.type(slot) != type))
            return false;
        ew.kind = static_cast<std::uint8_t>(DiWordKind::Compressed);
        ew.bits = compressedBits();
        ew.payload = de.index;
        ew.decoded = de.original;
        ew.approximated = !exact;
        ew.approx_count = exact ? 0 : 1;
        compressed = true;
        return true;
    });
    if (compressed)
        return ew;

    ew.kind = static_cast<std::uint8_t>(DiWordKind::Raw);
    ew.bits = rawBits();
    ew.payload = w;
    ew.decoded = w;
    ew.uncompressed = true;
    return ew;
}

EncodedWord
DiVaxxCodec::encodeWord(Word w, const DataBlock &block, NodeId src, NodeId dst)
{
    const bool approx_ok = block.approximable() &&
                           block.type() != DataType::Raw &&
                           avcl_.errorModel().enabled();
    return encodeOne(encoders_[src], w, block.type(), approx_ok, dst);
}

void
DiVaxxCodec::encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                         EncodedBlock &out)
{
    VaxxEncoderTable &e = encoders_[src];
    const bool approx_ok = block.approximable() &&
                           block.type() != DataType::Raw &&
                           avcl_.errorModel().enabled();
    const DataType type = block.type();
    for (std::size_t i = 0; i < block.size(); ++i)
        out.append(encodeOne(e, block.word(i), type, approx_ok, dst));
}

void
DiVaxxCodec::applyUpdateAtEncoder(NodeId enc, const Update &u)
{
    if (u.invalidate) {
        encoders_[enc].invalidate(u.decoder, u.index);
        return;
    }
    // APCL: compute the approximate pattern once, at record time.
    encoders_[enc].record(avcl_.patternFor(u.pattern, u.type), u.type,
                          u.decoder, u.index, u.pattern);
}

std::uint64_t
DiVaxxCodec::encoderSearches() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.tcam().searches();
    return n;
}

std::uint64_t
DiVaxxCodec::encoderWrites() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.tcam().writes();
    return n;
}

std::size_t
DiVaxxCodec::encoderPatternCount(NodeId node) const
{
    return encoders_[node].tcam().validCount();
}

} // namespace approxnoc
