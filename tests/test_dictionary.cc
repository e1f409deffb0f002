/** DI-COMP dictionary codec tests: learning, consistency, eviction,
 * and the update list against the per-decoder channel merge. */
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compression/dictionary.h"

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
block_of(std::initializer_list<Word> ws)
{
    return DataBlock(ws, DataType::Int32, false);
}

/** Round-trip a block src->dst at a given time. */
DataBlock
roundtrip(DiCompCodec &c, const DataBlock &b, NodeId src, NodeId dst, Cycle t)
{
    EncodedBlock enc = c.encode(b, src, dst, t);
    return c.decode(enc, src, dst, t);
}

} // namespace

TEST(DiComp, IndexBits)
{
    EXPECT_EQ(small_config().indexBits(), 3u);
}

TEST(DiComp, ZeroNotifyDelayIsRejected)
{
    DictionaryConfig cfg = small_config();
    // anoc-lint: allow(C2) -- the death test builds the forbidden config on purpose
    cfg.notify_delay = 0;
    EXPECT_DEATH(DiCompCodec c(cfg), "notify_delay must be at least 1");
}

TEST(DiComp, FirstTransmissionsAreRaw)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAAAA, 0xBBBB});
    EncodedBlock enc = c.encode(b, 0, 1, 0);
    EXPECT_EQ(enc.uncompressedWords(), 2u);
    // Nothing compressed -> raw-block fallback: exactly the block size
    // (the compressed/raw flag rides in the head flit).
    EXPECT_EQ(enc.bits(), b.sizeBits());
}

TEST(DiComp, NeverExpandsABlock)
{
    Rng rng(47);
    DiCompCodec c(small_config());
    for (int i = 0; i < 500; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = static_cast<Word>(rng.bits());
        DataBlock b(ws, DataType::Int32, false);
        EncodedBlock enc = c.encode(b, 0, 1, static_cast<Cycle>(i));
        EXPECT_LE(enc.bits(), b.sizeBits());
        c.decode(enc, 0, 1, static_cast<Cycle>(i));
    }
}

TEST(DiComp, LearnsRecurringPatternAfterThresholdAndDelay)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAAAA});

    // Two sightings at the decoder promote the pattern; the update
    // notification reaches the encoder after notify_delay.
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);

    EncodedBlock enc = c.encode(b, 0, 1, 5); // update not yet applied
    EXPECT_EQ(enc.uncompressedWords(), 1u);

    enc = c.encode(b, 0, 1, 20); // past notify_delay
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.bits(), 1u + 3u);

    DataBlock out = c.decode(enc, 0, 1, 20);
    EXPECT_TRUE(out.sameBits(b));
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, DictionariesArePerDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x1234});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);

    // Learned for destination 1 only.
    EncodedBlock enc1 = c.encode(b, 0, 1, 100);
    EncodedBlock enc2 = c.encode(b, 0, 2, 100);
    EXPECT_EQ(enc1.uncompressedWords(), 0u);
    EXPECT_EQ(enc2.uncompressedWords(), 1u);
}

TEST(DiComp, DecoderLearnsFromAnySender)
{
    // Decoder 2 sees the same word from senders 0 and 1; once the
    // pattern is in its PMT, each sender gets its own update.
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x7777});
    roundtrip(c, b, 0, 2, 0);
    roundtrip(c, b, 0, 2, 1);   // promoted, update to 0
    // Sender 1's sighting must wait out the notification rate limit.
    roundtrip(c, b, 1, 2, 100); // hit in PMT, update to 1

    EXPECT_EQ(c.encode(b, 0, 2, 200).uncompressedWords(), 0u);
    EXPECT_EQ(c.encode(b, 1, 2, 200).uncompressedWords(), 0u);
}

TEST(DiComp, RoundTripAlwaysExact)
{
    Rng rng(41);
    DiCompCodec c(small_config());
    // A value-local stream: many repeats.
    std::vector<Word> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(static_cast<Word>(rng.bits()));
    Cycle t = 0;
    for (int i = 0; i < 2000; ++i) {
        std::vector<Word> ws;
        for (int j = 0; j < 8; ++j)
            ws.push_back(rng.chance(0.7)
                             ? pool[rng.next(pool.size())]
                             : static_cast<Word>(rng.bits()));
        DataBlock b(ws, DataType::Int32, false);
        NodeId src = static_cast<NodeId>(rng.next(4));
        NodeId dst = static_cast<NodeId>(rng.next(4));
        if (src == dst)
            continue;
        DataBlock out = roundtrip(c, b, src, dst, t);
        ASSERT_TRUE(out.sameBits(b)) << "DI-COMP must be lossless";
        t += static_cast<Cycle>(rng.next(5));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, CompressionImprovesOnHotStream)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA});
    Cycle t = 0;
    std::size_t first_bits = 0, last_bits = 0;
    for (int i = 0; i < 50; ++i) {
        EncodedBlock enc = c.encode(b, 0, 1, t);
        c.decode(enc, 0, 1, t);
        if (i == 0)
            first_bits = enc.bits();
        last_bits = enc.bits();
        t += 30;
    }
    EXPECT_LT(last_bits, first_bits / 4);
}

TEST(DiComp, EvictionInvalidatesAndStaysConsistent)
{
    DictionaryConfig cfg = small_config();
    cfg.pmt_entries = 2; // tiny PMT forces evictions
    cfg.tracker_entries = 8;
    DiCompCodec c(cfg);
    Rng rng(43);
    Cycle t = 0;
    // Rotate through more hot patterns than PMT entries.
    std::vector<Word> pool = {0x11, 0x22, 0x33, 0x44, 0x55};
    for (int i = 0; i < 3000; ++i) {
        Word w = pool[rng.next(pool.size())];
        DataBlock b({w, w}, DataType::Int32, false);
        DataBlock out = roundtrip(c, b, 0, 1, t);
        ASSERT_TRUE(out.sameBits(b));
        t += static_cast<Cycle>(1 + rng.next(4));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, NotificationsAreDrainablePerDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x99});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    EXPECT_TRUE(c.drainNotifications(0).empty())
        << "node 0 decoded nothing";
    auto notes = c.drainNotifications(1);
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].from, 1u); // decoder
    EXPECT_EQ(notes[0].to, 0u);   // encoder
    EXPECT_EQ(notes[0].seq, 0u);  // the first notification node 1 emitted
    EXPECT_TRUE(c.drainNotifications(1).empty());

    // seq keeps counting across drains of the same destination.
    roundtrip(c, block_of({0x7777}), 0, 1, 100);
    roundtrip(c, block_of({0x7777}), 0, 1, 200);
    auto more = c.drainNotifications(1);
    ASSERT_EQ(more.size(), 1u);
    EXPECT_EQ(more[0].seq, 1u);
}

TEST(DiComp, PerDestinationDrainsCoverEveryDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x99});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    roundtrip(c, b, 1, 2, 0);
    roundtrip(c, b, 1, 2, 1);
    // Each destination drains exactly its own decoder's notifications.
    auto n1 = c.drainNotifications(1);
    ASSERT_EQ(n1.size(), 1u);
    EXPECT_EQ(n1[0].from, 1u);
    EXPECT_EQ(n1[0].to, 0u);
    auto n2 = c.drainNotifications(2);
    ASSERT_EQ(n2.size(), 1u);
    EXPECT_EQ(n2[0].from, 2u);
    EXPECT_EQ(n2[0].to, 1u);
    // Nodes that decoded nothing, and re-drains, are empty.
    EXPECT_TRUE(c.drainNotifications(0).empty());
    EXPECT_TRUE(c.drainNotifications(1).empty());
    EXPECT_TRUE(c.drainNotifications(2).empty());
}

TEST(DiComp, EncoderTablesPerNodeAreIndependent)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xCAFE});
    // Every encoder starts with the preloaded zero pattern only.
    EXPECT_EQ(c.encoderPatternCount(0), 1u);
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    EXPECT_EQ(c.encoderPatternCount(0), 1u); // update pending
    c.encode(b, 0, 1, 50);                   // applies pending updates
    EXPECT_EQ(c.encoderPatternCount(0), 2u);
    EXPECT_EQ(c.encoderPatternCount(1), 1u);
    EXPECT_EQ(c.encoderPatternCount(2), 1u);
}

TEST(DiComp, ZeroWordsCompressWithoutTraining)
{
    DiCompCodec c(small_config());
    DataBlock b({0, 0, 0, 0}, DataType::Int32, false);
    EncodedBlock enc = c.encode(b, 0, 1, 0);
    EXPECT_EQ(enc.uncompressedWords(), 0u)
        << "the zero pattern is hardwired at reset";
    DataBlock out = c.decode(enc, 0, 1, 0);
    EXPECT_TRUE(out.sameBits(b));
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

// ---------------------------------------------------------------------
// PendingUpdates against the per-(encoder, decoder) channel merge it
// replaced: one FIFO per decoder, and a loop that repeatedly takes the
// due channel head with the smallest (apply cycle, decoder id). The
// reference below is that merge for one encoder, kept verbatim; the
// list must hand out exactly the same sequence for any schedule.

namespace {

struct ChannelMergeRef {
    std::vector<std::deque<DictionaryUpdate>> chans;

    explicit ChannelMergeRef(std::size_t n_decoders) : chans(n_decoders) {}

    void push(const DictionaryUpdate &u) { chans[u.decoder].push_back(u); }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &c : chans)
            n += c.size();
        return n;
    }

    std::vector<DictionaryUpdate>
    takeDue(Cycle now)
    {
        std::vector<DictionaryUpdate> out;
        for (;;) {
            std::size_t best = chans.size();
            for (std::size_t d = 0; d < chans.size(); ++d) {
                if (chans[d].empty() || chans[d].front().apply > now)
                    continue;
                if (best == chans.size() ||
                    chans[d].front().apply < chans[best].front().apply)
                    best = d;
            }
            if (best == chans.size())
                break;
            out.push_back(chans[best].front());
            chans[best].pop_front();
        }
        return out;
    }
};

bool
same_update(const DictionaryUpdate &a, const DictionaryUpdate &b)
{
    return a.apply == b.apply && a.invalidate == b.invalidate &&
           a.pattern == b.pattern && a.type == b.type && a.index == b.index &&
           a.decoder == b.decoder;
}

} // namespace

TEST(PendingUpdates, HeldHeadReleasesItsEarlierSuccessorsFirst)
{
    // Decoder 0 sent apply 10 then apply 5 (its clock went backwards);
    // decoder 1 sent apply 7. At cycle 10 the merge takes 1@7 (0's
    // head, 10, is larger), then 0@10, then 0@5 behind it.
    PendingUpdates p;
    p.push(DictionaryUpdate{10, false, 0xA, DataType::Int32, 1, 0});
    p.push(DictionaryUpdate{5, false, 0xB, DataType::Int32, 2, 0});
    p.push(DictionaryUpdate{7, true, 0xC, DataType::Int32, 3, 1});
    EXPECT_EQ(p.nextDue(), 5u);
    // At 6 decoder 0 is held by its head (10), so 0@5 must wait.
    EXPECT_TRUE(p.takeDue(6).empty());
    EXPECT_EQ(p.size(), 3u);
    std::vector<DictionaryUpdate> got = p.takeDue(10);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].pattern, 0xCu);
    EXPECT_EQ(got[1].pattern, 0xAu);
    EXPECT_EQ(got[2].pattern, 0xBu);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.nextDue(), PendingUpdates::kNever);
}

TEST(PendingUpdates, MatchesPerDecoderChannelMergeOnRandomSchedules)
{
    constexpr std::size_t kDecoders = 6;
    constexpr Cycle kDelay = 10;
    // Coverage of the cases the merge order has to get right.
    std::size_t multi_decoder_cycles = 0; // >1 decoder due at one apply
    std::size_t inval_then_update = 0;    // same decoder, same cycle
    std::size_t rewinds = 0;              // a call with a smaller now
    std::size_t held_but_due = 0;         // due update left behind

    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 0x9E37ull);
        PendingUpdates dut;
        ChannelMergeRef ref(kDecoders);
        Cycle now = 1000;
        Cycle last_query = 0;

        for (int step = 0; step < 1500; ++step) {
            // Mostly advancing time, with occasional rewinds so channel
            // apply cycles stop being monotone.
            if (rng.chance(0.08))
                now -= static_cast<Cycle>(rng.next(25));
            else
                now += static_cast<Cycle>(rng.next(4));

            unsigned sends = static_cast<unsigned>(rng.next(4));
            for (unsigned k = 0; k < sends; ++k) {
                Cycle delay = rng.chance(0.8)
                                  ? kDelay
                                  : 1 + static_cast<Cycle>(rng.next(25));
                DictionaryUpdate u{
                    now + delay, rng.chance(0.3),
                    static_cast<Word>(rng.bits()),
                    rng.chance(0.5) ? DataType::Int32 : DataType::Float32,
                    static_cast<std::uint8_t>(rng.next(8)),
                    static_cast<NodeId>(rng.next(kDecoders))};
                if (rng.chance(0.2)) {
                    // An eviction: the invalidation of the victim and
                    // the update reusing its index leave one decoder in
                    // the same cycle, in that order.
                    DictionaryUpdate inval = u;
                    inval.invalidate = true;
                    u.invalidate = false;
                    u.pattern ^= 0x5A5Au;
                    dut.push(inval);
                    ref.push(inval);
                }
                dut.push(u);
                ref.push(u);
            }

            if (!rng.chance(0.5))
                continue;
            Cycle query = now + static_cast<Cycle>(rng.next(30)) - 12;
            if (query < last_query)
                ++rewinds;
            last_query = query;

            std::vector<DictionaryUpdate> want = ref.takeDue(query);
            const std::vector<DictionaryUpdate> &got = dut.takeDue(query);
            ASSERT_EQ(got.size(), want.size())
                << "seed " << seed << " step " << step;
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_TRUE(same_update(got[i], want[i]))
                    << "seed " << seed << " step " << step << " pos " << i;
            ASSERT_EQ(dut.size(), ref.size());

            // nextDue() bounds every queued apply cycle from below.
            for (const auto &c : ref.chans)
                for (const auto &u : c) {
                    ASSERT_LE(dut.nextDue(), u.apply);
                    held_but_due += u.apply <= query;
                }
            for (std::size_t i = 0; i + 1 < want.size(); ++i) {
                multi_decoder_cycles += want[i].apply == want[i + 1].apply &&
                                        want[i].decoder != want[i + 1].decoder;
                inval_then_update += want[i].decoder == want[i + 1].decoder &&
                                     want[i].apply == want[i + 1].apply &&
                                     want[i].invalidate &&
                                     !want[i + 1].invalidate;
            }
        }
    }
    EXPECT_GT(multi_decoder_cycles, 0u);
    EXPECT_GT(inval_then_update, 0u);
    EXPECT_GT(rewinds, 0u);
    EXPECT_GT(held_but_due, 0u);
}
