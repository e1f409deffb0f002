/**
 * @file
 * DI-VAXX (paper Sec. 4.2.1, Fig. 8): dictionary compression whose
 * encoder PMT is a TCAM of *approximate* patterns. The APCL computes
 * each reference pattern's don't-care mask once, when the update
 * notification is recorded — keeping the AVCL off the packetization
 * critical path — and the original patterns are stored alongside so
 * non-approximable data can still be matched exactly.
 */
#ifndef APPROXNOC_APPROX_DI_VAXX_H
#define APPROXNOC_APPROX_DI_VAXX_H

#include <vector>

#include "approx/avcl.h"
#include "common/contract.h"
#include "compression/dictionary.h"
#include "tcam/tcam.h"

namespace approxnoc {

/**
 * Where the approximation logic sits relative to the dictionary.
 * Insertion is the paper's design (APCL at update-record time, TCAM
 * lookup on the critical path); Lookup is the naive ablation (AVCL in
 * series before a dictionary lookup), functionally similar but two
 * cycles slower per block.
 */
enum class VaxxPlacement : std::uint8_t {
    Insertion, ///< paper: precomputed TCAM patterns
    Lookup,    ///< ablation: AVCL on the critical path
};

/**
 * One DI-VAXX encoder's PMT (Fig. 8): a TCAM of approximate patterns
 * and, per TCAM slot and destination, that destination's decoder
 * index and original pattern. The mappings are a flat
 * [slot x n_nodes] array plus a per-slot count of valid mappings; a
 * TCAM entry is erased when its last mapping is invalidated.
 */
class VaxxEncoderTable
{
  public:
    /** One destination's view of a TCAM entry (Fig. 8: idx + op). */
    struct Mapping {
        Word original = 0;
        std::uint8_t index = 0;
        bool valid = false;
    };

    VaxxEncoderTable(std::size_t entries, std::size_t n_nodes,
                     ReplacementPolicy policy);

    /**
     * Map @p decoder's @p index (holding @p original) under the TCAM
     * entry for @p tp, learned from data of @p type. When @p tp is not
     * stored yet it replaces the TCAM victim, and the victim's
     * mappings for every destination go with it.
     */
    void record(const TernaryPattern &tp, DataType type, NodeId decoder,
                std::uint8_t index, Word original);

    /** Drop @p decoder's mapping to @p index wherever it is held,
     * erasing a TCAM entry left without mappings. */
    void invalidate(NodeId decoder, std::uint8_t index);

    const Mapping &
    mapping(std::size_t slot, NodeId dst) const
    {
        return mappings_[slot * n_nodes_ + dst];
    }
    /** Destinations with a valid mapping under @p slot. */
    std::size_t mappedCount(std::size_t slot) const { return mapped_[slot]; }
    /** Data type the pattern in @p slot was learned from. */
    DataType type(std::size_t slot) const { return types_[slot]; }

    Tcam &tcam() { return tcam_; }
    const Tcam &tcam() const { return tcam_; }

  private:
    Tcam tcam_;
    std::size_t n_nodes_;
    std::vector<DataType> types_;
    std::vector<Mapping> mappings_;   ///< [slot * n_nodes + dst]
    std::vector<std::uint32_t> mapped_; ///< valid mappings per slot
};

/** The DI-VAXX codec. */
class DiVaxxCodec : public DictionaryCodecBase
{
  public:
    ANOC_ISOLATION_CONTRACT(flow_isolation);

    DiVaxxCodec(const DictionaryConfig &cfg, const ErrorModel &model,
                VaxxPlacement placement = VaxxPlacement::Insertion);

    Scheme scheme() const override { return Scheme::DiVaxx; }

    Cycle
    compressionLatency() const override
    {
        // Lookup placement serializes the AVCL (2 extra cycles) before
        // the 3-cycle match+encode pipeline.
        return placement_ == VaxxPlacement::Insertion ? kCompressionLatency
                                                      : kCompressionLatency + 2;
    }

    std::uint64_t encoderSearches() const override;
    std::uint64_t encoderWrites() const override;

    /** Encoder TCAM occupancy at @p node (tests). */
    std::size_t encoderPatternCount(NodeId node) const;

    const Avcl &avcl() const { return avcl_; }
    VaxxPlacement placement() const { return placement_; }

    /** New threshold applies to patterns recorded from now on. */
    bool
    setErrorThreshold(double pct) override
    {
        avcl_.setErrorModel(ErrorModel(pct, avcl_.errorModel().mode()));
        return true;
    }

    CodecActivity
    activity() const override
    {
        CodecActivity a = CodecSystem::activity();
        a.tcam_searches = encoderSearches();
        a.tcam_writes = encoderWrites();
        a.cam_searches = decoderSearches();
        a.cam_writes = decoderWrites();
        a.avcl_ops = avcl_.activations();
        return a;
    }

  protected:
    EncodedWord encodeWord(Word w, const DataBlock &block, NodeId src,
                           NodeId dst) override;
    void encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                     EncodedBlock &out) override;
    void applyUpdateAtEncoder(NodeId enc, const Update &u) override;

  private:
    /**
     * The per-word encode step both paths share: one bit-sliced TCAM
     * probe visiting matches in priority order until one holds a
     * usable mapping for @p dst. @p approx_ok and @p type are hoisted
     * by encodeWords and recomputed per word by encodeWord.
     */
    EncodedWord encodeOne(VaxxEncoderTable &e, Word w, DataType type,
                          bool approx_ok, NodeId dst);

    ANOC_SHARD_LOCAL std::vector<VaxxEncoderTable> encoders_;
    /** Shared read-only analysis logic; its activation count is the
     * Avcl class's own relaxed-atomic contract state. */
    ANOC_REGION_SHARED Avcl avcl_;
    ANOC_REGION_SHARED VaxxPlacement placement_;
};

} // namespace approxnoc

#endif // APPROXNOC_APPROX_DI_VAXX_H
