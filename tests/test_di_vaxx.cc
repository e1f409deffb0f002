/** DI-VAXX codec tests: TCAM approximate matching, exact-path storage,
 * and the flat destination table against a per-slot std::map model. */
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "approx/di_vaxx.h"
#include "common/rng.h"

using namespace approxnoc;

namespace {

DictionaryConfig
small_config()
{
    DictionaryConfig cfg;
    cfg.n_nodes = 4;
    cfg.pmt_entries = 8;
    cfg.tracker_entries = 16;
    cfg.promote_threshold = 2;
    cfg.notify_delay = 10;
    return cfg;
}

DataBlock
train_block(Word w, bool approximable = true)
{
    return DataBlock({w}, DataType::Int32, approximable);
}

void
train(DiVaxxCodec &c, Word w, NodeId src, NodeId dst, Cycle &t)
{
    for (int i = 0; i < 2; ++i) {
        DataBlock b = train_block(w);
        EncodedBlock enc = c.encode(b, src, dst, t);
        c.decode(enc, src, dst, t);
        ++t;
    }
    t += 20; // let the update notification apply
}

double
bound_for(double e_pct)
{
    return e_pct / (100.0 - e_pct) + 1e-9;
}

} // namespace

TEST(DiVaxx, ApproximateMatchCompressesNearbyValues)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);

    // 1000 @ 20%: range = 125, k = 6 -> pattern matches 960..1023.
    DataBlock near = train_block(1001);
    EncodedBlock enc = c.encode(near, 0, 1, t);
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.approximatedWords(), 1u);
    DataBlock out = c.decode(enc, 0, 1, t);
    EXPECT_EQ(out.word(0), 1000u) << "decoder reconstructs the reference";

    DataBlock far = train_block(1200);
    EncodedBlock enc2 = c.encode(far, 0, 1, t);
    EXPECT_EQ(enc2.uncompressedWords(), 1u) << "outside the mask: raw";
}

TEST(DiVaxx, ExactMatchViaOriginalPattern)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);

    // A non-approximable block can still compress on an exact original.
    DataBlock exact = train_block(1000, /*approximable=*/false);
    EncodedBlock enc = c.encode(exact, 0, 1, t);
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.approximatedWords(), 0u);

    // But a merely mask-matching value must NOT compress when precise
    // data is required (paper: TCAM match does not guarantee recovery).
    DataBlock inexact = train_block(1001, /*approximable=*/false);
    EncodedBlock enc2 = c.encode(inexact, 0, 1, t);
    EXPECT_EQ(enc2.uncompressedWords(), 1u);
}

TEST(DiVaxx, ErrorBoundInvariant)
{
    Rng rng(71);
    for (double e : {10.0, 20.0}) {
        DiVaxxCodec c(small_config(), ErrorModel(e));
        Cycle t = 0;
        std::vector<Word> pool;
        for (int i = 0; i < 6; ++i)
            pool.push_back(static_cast<Word>(rng.range(1000, 2000000)));
        for (int i = 0; i < 4000; ++i) {
            Word base = pool[rng.next(pool.size())];
            // Jitter around pool values to exercise approximate hits.
            Word w = static_cast<Word>(
                static_cast<std::int64_t>(base) + rng.range(-50, 50));
            DataBlock b = train_block(w);
            EncodedBlock enc = c.encode(b, 0, 1, t);
            DataBlock out = c.decode(enc, 0, 1, t);
            double p = static_cast<double>(static_cast<std::int32_t>(w));
            double a = static_cast<double>(static_cast<std::int32_t>(out.word(0)));
            ASSERT_LE(std::abs(a - p), std::abs(p) * bound_for(e))
                << "w=" << w << " decoded=" << out.word(0);
            ++t;
        }
        EXPECT_EQ(c.consistencyMismatches(), 0u);
    }
}

TEST(DiVaxx, TypeConfusionIsPrevented)
{
    // A pattern learned from float data must not approximate integer
    // words (mask semantics differ across types).
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    float f = 1234.5f;
    Word fw = std::bit_cast<Word>(f);
    for (int i = 0; i < 2; ++i) {
        DataBlock b({fw}, DataType::Float32, true);
        c.decode(c.encode(b, 0, 1, t), 0, 1, t);
        ++t;
    }
    t += 20;

    // An int word that happens to sit inside the float pattern's mask.
    DataBlock ib({fw ^ 1u}, DataType::Int32, true);
    EncodedBlock enc = c.encode(ib, 0, 1, t);
    EXPECT_EQ(enc.approximatedWords(), 0u)
        << "cross-type approximate match must be rejected";
}

TEST(DiVaxx, FloatApproximationWorks)
{
    DiVaxxCodec c(small_config(), ErrorModel(10.0));
    Cycle t = 0;
    float base = 3.14159f;
    Word bw = std::bit_cast<Word>(base);
    for (int i = 0; i < 2; ++i) {
        DataBlock b({bw}, DataType::Float32, true);
        c.decode(c.encode(b, 0, 1, t), 0, 1, t);
        ++t;
    }
    t += 20;

    float near = 3.1415f; // same exponent, mantissa within 10%
    DataBlock nb({std::bit_cast<Word>(near)}, DataType::Float32, true);
    EncodedBlock enc = c.encode(nb, 0, 1, t);
    ASSERT_EQ(enc.uncompressedWords(), 0u);
    DataBlock out = c.decode(enc, 0, 1, t);
    EXPECT_EQ(out.word(0), bw);
    EXPECT_LE(std::abs(out.floatAt(0) - near), std::abs(near) * 0.12f);
}

TEST(DiVaxx, MultipleOriginalsPerTcamEntry)
{
    // Two decoders learn different originals in the same value range;
    // the encoder's TCAM entry keeps one original per destination.
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t); // decoder 1 learns 1000
    train(c, 1001, 0, 2, t); // decoder 2 learns 1001 (same ternary class)

    DataBlock q = train_block(1002);
    EncodedBlock e1 = c.encode(q, 0, 1, t);
    EncodedBlock e2 = c.encode(q, 0, 2, t);
    ASSERT_EQ(e1.uncompressedWords(), 0u);
    ASSERT_EQ(e2.uncompressedWords(), 0u);
    EXPECT_EQ(c.decode(e1, 0, 1, t).word(0), 1000u);
    EXPECT_EQ(c.decode(e2, 0, 2, t).word(0), 1001u);
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiVaxx, LookupPlacementIsSlower)
{
    DiVaxxCodec ins(small_config(), ErrorModel(10.0),
                    VaxxPlacement::Insertion);
    DiVaxxCodec look(small_config(), ErrorModel(10.0),
                     VaxxPlacement::Lookup);
    EXPECT_EQ(ins.compressionLatency(), kCompressionLatency);
    EXPECT_EQ(look.compressionLatency(), kCompressionLatency + 2);
}

TEST(DiVaxx, StressConsistencyUnderEviction)
{
    DictionaryConfig cfg = small_config();
    cfg.pmt_entries = 2;
    DiVaxxCodec c(cfg, ErrorModel(10.0));
    Rng rng(73);
    Cycle t = 0;
    std::vector<Word> pool = {5000, 90000, 1234567, 42424242, 777777};
    for (int i = 0; i < 4000; ++i) {
        Word w = pool[rng.next(pool.size())];
        w += static_cast<Word>(rng.next(16));
        DataBlock b({w, w}, DataType::Int32, rng.chance(0.75));
        NodeId dst = 1 + static_cast<NodeId>(rng.next(3));
        DataBlock out = c.decode(c.encode(b, 0, dst, t), 0, dst, t);
        if (!b.approximable()) {
            ASSERT_TRUE(out.sameBits(b));
        }
        t += static_cast<Cycle>(rng.next(3));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

// Power-model regression for the fused probe (encodeOne's single
// searchVisit): encoding n non-zero words costs exactly n TCAM
// searches, whether each word hits approximately, hits exactly, misses
// outright, or matches a pattern whose slot has no mapping for the
// destination (the visitor rejects and the priority scan continues —
// still within the same one search).
TEST(DiVaxx, FusedProbeCostsOneSearchPerWord)
{
    DiVaxxCodec c(small_config(), ErrorModel(20.0));
    Cycle t = 0;
    train(c, 1000, 0, 1, t);
    train(c, 2000, 0, 1, t); // second entry: priority scan has depth

    // approximate hit, exact hit, miss, approximate hit on entry 2.
    std::uint64_t before = c.encoderSearches();
    DataBlock b({1001, 1000, 777777, 2003}, DataType::Int32, true);
    c.encode(b, 0, 1, t);
    EXPECT_EQ(c.encoderSearches(), before + 4);

    // Unknown destination: patterns match but no slot has a dst-3
    // mapping, so every visit is rejected — cost is still 1 per word.
    before = c.encoderSearches();
    c.encode(b, 0, 3, t);
    EXPECT_EQ(c.encoderSearches(), before + 4);
}

// ---------------------------------------------------------------------
// VaxxEncoderTable against the per-slot std::map<NodeId, entry> layout
// it replaced. The reference keeps that code verbatim (TCAM, per-slot
// types and maps); after every operation the two must hold the same
// TCAM contents and counters, types and per-destination mappings.

namespace {

struct RefVaxxTable {
    struct DstEntry {
        std::uint8_t index;
        Word original;
    };

    Tcam tcam;
    std::vector<DataType> types;
    std::vector<std::map<NodeId, DstEntry>> dst_entries;

    RefVaxxTable(std::size_t entries, ReplacementPolicy policy)
        : tcam(entries, policy), types(entries, DataType::Raw),
          dst_entries(entries)
    {}

    void
    record(const TernaryPattern &tp, DataType type, NodeId decoder,
           std::uint8_t index, Word original)
    {
        std::size_t slot = tcam.victimFor(tp);
        bool evicting = tcam.valid(slot) && !(tcam.pattern(slot) == tp);
        if (evicting)
            dst_entries[slot].clear();
        tcam.insert(tp);
        types[slot] = type;
        dst_entries[slot][decoder] = DstEntry{index, original};
    }

    void
    invalidate(NodeId decoder, std::uint8_t index)
    {
        for (std::size_t s = 0; s < tcam.capacity(); ++s) {
            auto it = dst_entries[s].find(decoder);
            if (it != dst_entries[s].end() && it->second.index == index) {
                dst_entries[s].erase(it);
                if (dst_entries[s].empty())
                    tcam.erase(s);
            }
        }
    }
};

void
expect_same_table(const VaxxEncoderTable &dut, const RefVaxxTable &ref,
                  std::size_t n_nodes, int step)
{
    const Tcam &a = dut.tcam();
    ASSERT_EQ(a.validCount(), ref.tcam.validCount()) << "step " << step;
    ASSERT_EQ(a.writes(), ref.tcam.writes()) << "step " << step;
    ASSERT_EQ(a.peeks(), ref.tcam.peeks()) << "step " << step;
    for (std::size_t s = 0; s < a.capacity(); ++s) {
        ASSERT_EQ(a.valid(s), ref.tcam.valid(s)) << "step " << step;
        if (!a.valid(s))
            continue;
        ASSERT_TRUE(a.pattern(s) == ref.tcam.pattern(s)) << "step " << step;
        ASSERT_EQ(dut.type(s), ref.types[s]) << "step " << step;
        ASSERT_EQ(dut.mappedCount(s), ref.dst_entries[s].size())
            << "step " << step << " slot " << s;
        for (NodeId d = 0; d < n_nodes; ++d) {
            const auto &m = dut.mapping(s, d);
            auto it = ref.dst_entries[s].find(d);
            ASSERT_EQ(m.valid, it != ref.dst_entries[s].end())
                << "step " << step << " slot " << s << " dst " << d;
            if (m.valid) {
                ASSERT_EQ(m.index, it->second.index) << "step " << step;
                ASSERT_EQ(m.original, it->second.original) << "step " << step;
            }
        }
    }
}

TernaryPattern
exact(Word w)
{
    return TernaryPattern{w, 0};
}

} // namespace

TEST(VaxxEncoderTable, LastInvalidationFreesTheTcamSlot)
{
    VaxxEncoderTable dut(4, 4, ReplacementPolicy::Lfu);
    RefVaxxTable ref(4, ReplacementPolicy::Lfu);
    int step = 0;
    auto both_record = [&](Word w, NodeId dec, std::uint8_t idx) {
        dut.record(exact(w), DataType::Int32, dec, idx, w);
        ref.record(exact(w), DataType::Int32, dec, idx, w);
        expect_same_table(dut, ref, 4, step++);
    };
    auto both_invalidate = [&](NodeId dec, std::uint8_t idx) {
        dut.invalidate(dec, idx);
        ref.invalidate(dec, idx);
        expect_same_table(dut, ref, 4, step++);
    };
    both_record(100, 1, 3);
    both_record(100, 2, 5);
    ASSERT_EQ(dut.tcam().validCount(), 1u);
    both_invalidate(1, 3);
    EXPECT_EQ(dut.tcam().validCount(), 1u) << "decoder 2 still maps it";
    both_invalidate(2, 4); // wrong index: no-op
    EXPECT_EQ(dut.mappedCount(0), 1u);
    both_invalidate(2, 5);
    EXPECT_EQ(dut.tcam().validCount(), 0u) << "last mapping frees the slot";
    EXPECT_EQ(dut.mappedCount(0), 0u);
}

TEST(VaxxEncoderTable, EvictionDropsEveryDestinationsMapping)
{
    VaxxEncoderTable dut(2, 4, ReplacementPolicy::Lfu);
    RefVaxxTable ref(2, ReplacementPolicy::Lfu);
    int step = 0;
    for (NodeId d = 0; d < 4; ++d) {
        dut.record(exact(7), DataType::Int32, d, 1, 7);
        ref.record(exact(7), DataType::Int32, d, 1, 7);
        expect_same_table(dut, ref, 4, step++);
    }
    dut.record(exact(9), DataType::Float32, 0, 2, 9);
    ref.record(exact(9), DataType::Float32, 0, 2, 9);
    expect_same_table(dut, ref, 4, step++);
    // Slot 1 (pattern 9, one hit) is the LFU victim for pattern 11.
    dut.record(exact(11), DataType::Int32, 3, 4, 11);
    ref.record(exact(11), DataType::Int32, 3, 4, 11);
    expect_same_table(dut, ref, 4, step++);
    EXPECT_EQ(dut.mappedCount(1), 1u);
    EXPECT_FALSE(dut.mapping(1, 0).valid) << "evicted pattern's mapping";
    EXPECT_TRUE(dut.mapping(1, 3).valid);
}

TEST(VaxxEncoderTable, ReinsertOfTheSamePatternKeepsItsMappings)
{
    VaxxEncoderTable dut(2, 4, ReplacementPolicy::Lru);
    RefVaxxTable ref(2, ReplacementPolicy::Lru);
    // Two originals under one approximate pattern: the second record
    // rehits the entry and must keep decoder 0's mapping.
    TernaryPattern tp{0x100, 0xF};
    dut.record(tp, DataType::Int32, 0, 1, 0x101);
    ref.record(tp, DataType::Int32, 0, 1, 0x101);
    dut.record(tp, DataType::Int32, 2, 6, 0x10E);
    ref.record(tp, DataType::Int32, 2, 6, 0x10E);
    expect_same_table(dut, ref, 4, 0);
    EXPECT_EQ(dut.mappedCount(0), 2u);
    EXPECT_EQ(dut.mapping(0, 0).original, 0x101u);
    // A re-record for an already-mapped destination overwrites in place.
    dut.record(tp, DataType::Int32, 0, 3, 0x10F);
    ref.record(tp, DataType::Int32, 0, 3, 0x10F);
    expect_same_table(dut, ref, 4, 1);
    EXPECT_EQ(dut.mappedCount(0), 2u);
    EXPECT_EQ(dut.mapping(0, 0).index, 3u);
}

TEST(VaxxEncoderTable, MatchesMapLayoutOnRandomChurn)
{
    constexpr std::size_t kNodes = 6;
    for (ReplacementPolicy pol :
         {ReplacementPolicy::Lfu, ReplacementPolicy::Lru}) {
        VaxxEncoderTable dut(4, kNodes, pol);
        RefVaxxTable ref(4, pol);
        Rng rng(pol == ReplacementPolicy::Lfu ? 11 : 12);
        for (int step = 0; step < 20000; ++step) {
            NodeId dec = static_cast<NodeId>(rng.next(kNodes));
            auto idx = static_cast<std::uint8_t>(rng.next(4));
            if (rng.chance(0.4)) {
                dut.invalidate(dec, idx);
                ref.invalidate(dec, idx);
            } else {
                Word w = static_cast<Word>(rng.next(24));
                TernaryPattern tp{w, rng.chance(0.5) ? 0x3u : 0x0u};
                DataType t =
                    rng.chance(0.5) ? DataType::Int32 : DataType::Float32;
                dut.record(tp, t, dec, idx, w);
                ref.record(tp, t, dec, idx, w);
            }
            ASSERT_NO_FATAL_FAILURE(expect_same_table(dut, ref, kNodes, step));
        }
    }
}
