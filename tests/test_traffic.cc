/** Traffic layer tests: patterns, providers, trace I/O, replay. */
#include <cstdio>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "traffic/data_provider.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/patterns.h"
#include "traffic/closed_loop.h"
#include "traffic/replay.h"
#include "traffic/trace.h"

using namespace approxnoc;

TEST(Patterns, NeverSelfAddressed)
{
    Rng rng(91);
    for (TrafficPattern p :
         {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
          TrafficPattern::BitComplement, TrafficPattern::Hotspot,
          TrafficPattern::Neighbor}) {
        for (unsigned n : {4u, 16u, 32u}) {
            for (NodeId src = 0; src < n; ++src) {
                for (int i = 0; i < 20; ++i) {
                    NodeId dst = pick_destination(p, src, n, rng);
                    ASSERT_NE(dst, src) << to_string(p);
                    ASSERT_LT(dst, n);
                }
            }
        }
    }
}

TEST(Patterns, TransposeOnSquareGrid)
{
    Rng rng(93);
    // 16 nodes = 4x4: node (x,y) -> (y,x); node 1 = (1,0) -> (0,1) = 4.
    EXPECT_EQ(pick_destination(TrafficPattern::Transpose, 1, 16, rng), 4u);
    EXPECT_EQ(pick_destination(TrafficPattern::Transpose, 7, 16, rng), 13u);
}

TEST(Patterns, TransposeFallsBackOnNonSquareEndpoints)
{
    // The 4x4 and 8x8 cmeshes have 32 and 128 endpoints, neither a
    // square, so Transpose is the uniform draw: the same destination
    // from the same random stream, for every source.
    for (unsigned n : {32u, 128u}) {
        EXPECT_FALSE(transpose_is_defined(n)) << n;
        Rng tr(97), ur(97);
        for (int round = 0; round < 4; ++round)
            for (NodeId src = 0; src < n; ++src)
                ASSERT_EQ(
                    pick_destination(TrafficPattern::Transpose, src, n, tr),
                    pick_destination(TrafficPattern::UniformRandom, src, n,
                                     ur))
                    << n << " endpoints, src " << src;
    }
    EXPECT_TRUE(transpose_is_defined(16));
    EXPECT_TRUE(transpose_is_defined(64));
}

TEST(Patterns, NeighborWraps)
{
    Rng rng(95);
    EXPECT_EQ(pick_destination(TrafficPattern::Neighbor, 2, 8, rng), 3u);
    EXPECT_EQ(pick_destination(TrafficPattern::Neighbor, 7, 8, rng), 0u);
}

TEST(Patterns, FromString)
{
    EXPECT_EQ(pattern_from_string("ur"), TrafficPattern::UniformRandom);
    EXPECT_EQ(pattern_from_string("transpose"), TrafficPattern::Transpose);
}

TEST(DataProvider, SyntheticBlocksHaveRequestedShape)
{
    SyntheticDataProvider p(DataType::Float32, 16);
    for (int i = 0; i < 100; ++i) {
        DataBlock b = p.next(static_cast<NodeId>(i % 8));
        EXPECT_EQ(b.size(), 16u);
        EXPECT_EQ(b.type(), DataType::Float32);
        EXPECT_TRUE(b.approximable());
    }
}

TEST(DataProvider, SyntheticLocalityIsCompressible)
{
    // High-locality data must dictionary-compress well.
    SyntheticDataProvider p(DataType::Int32, 16, 0.95, 0.0, 5);
    CodecConfig cc;
    cc.n_nodes = 4;
    auto codec = CodecFactory::create(Scheme::DiComp, cc);
    Cycle t = 0;
    std::size_t raw_bits = 0, enc_bits = 0;
    for (int i = 0; i < 400; ++i) {
        DataBlock b = p.next(0);
        EncodedBlock e = codec->encode(b, 0, 1, t);
        codec->decode(e, 0, 1, t);
        raw_bits += b.sizeBits();
        enc_bits += e.bits();
        t += 30;
    }
    EXPECT_LT(enc_bits, raw_bits);
}

TEST(DataProvider, TraceProviderRoundRobins)
{
    std::vector<DataBlock> blocks;
    for (Word w = 0; w < 4; ++w)
        blocks.push_back(DataBlock({w}, DataType::Int32, true));
    TraceDataProvider p(blocks);
    DataBlock a = p.next(0);
    DataBlock b = p.next(0);
    EXPECT_NE(a.word(0), b.word(0));
}

TEST(Trace, SaveLoadRoundTrip)
{
    CommTrace t;
    std::uint32_t b0 =
        t.addBlock(DataBlock({1, 2, 3}, DataType::Int32, true));
    std::uint32_t b1 = t.addBlock(
        DataBlock({0xDEADBEEF, 0xFFFFFFFF}, DataType::Float32, false));
    t.add(TraceRecord{0, 0, 1, PacketClass::Control, TraceRecord::kNoBlock});
    t.add(TraceRecord{5, 2, 3, PacketClass::Data, b0});
    t.add(TraceRecord{9, 1, 0, PacketClass::Data, b1});

    std::string path = ::testing::TempDir() + "/trace_test.txt";
    t.save(path);
    CommTrace u = CommTrace::load(path);
    std::remove(path.c_str());

    ASSERT_EQ(u.size(), 3u);
    ASSERT_EQ(u.blocks().size(), 2u);
    EXPECT_EQ(u.records()[0].cls, PacketClass::Control);
    EXPECT_EQ(u.records()[1].t, 5u);
    EXPECT_EQ(u.records()[1].block, b0);
    EXPECT_TRUE(u.block(b0).sameBits(t.block(b0)));
    EXPECT_TRUE(u.block(b1).sameBits(t.block(b1)));
    EXPECT_EQ(u.block(b1).type(), DataType::Float32);
    EXPECT_FALSE(u.block(b1).approximable());
    EXPECT_EQ(u.duration(), 9u);
    EXPECT_NEAR(u.dataPacketRatio(), 2.0 / 3.0, 1e-12);
}

TEST(Replay, InjectsEveryRecordOnce)
{
    CommTrace trace;
    std::uint32_t blk =
        trace.addBlock(DataBlock(std::vector<Word>(16, 7), DataType::Int32,
                                 true));
    for (Cycle t = 0; t < 200; t += 2) {
        trace.add(TraceRecord{t, static_cast<NodeId>(t % 8),
                              static_cast<NodeId>((t + 3) % 8),
                              t % 4 == 0 ? PacketClass::Data
                                         : PacketClass::Control,
                              t % 4 == 0 ? blk : TraceRecord::kNoBlock});
    }

    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    TraceReplay replay(net, trace);
    sim.add(&replay);

    ASSERT_TRUE(sim.runUntil(
        [&] { return replay.done() && net.drained(); }, 100000));
    EXPECT_EQ(replay.injected(), trace.size());
    EXPECT_EQ(net.stats().packets_delivered.value(), trace.size());
}

TEST(Replay, ApproxRatioZeroDisablesApproximation)
{
    CommTrace trace;
    std::uint32_t blk = trace.addBlock(
        DataBlock(std::vector<Word>(16, 0x00770008), DataType::Int32, true));
    for (Cycle t = 0; t < 100; ++t)
        trace.add(TraceRecord{t, 0, 5, PacketClass::Data, blk});

    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    cc.error_threshold_pct = 20.0;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    TraceReplay replay(net, trace, 1.0, /*approx_ratio=*/0.0);
    sim.add(&replay);
    sim.runUntil([&] { return replay.done() && net.drained(); }, 100000);
    EXPECT_EQ(net.stats().quality.approximatedWords(), 0u);
    EXPECT_DOUBLE_EQ(net.stats().quality.meanRelativeError(), 0.0);
}

TEST(ClosedLoop, RequestReplyRoundTrips)
{
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);

    ClosedLoopConfig lc;
    lc.window = 2;
    SyntheticDataProvider provider(DataType::Int32);
    ClosedLoopTraffic gen(net, lc, provider);
    sim.add(&gen);

    sim.run(20000);
    gen.setEnabled(false);
    ASSERT_TRUE(sim.runUntil(
        [&] { return gen.quiesced() && net.drained(); }, 100000));

    EXPECT_GT(gen.repliesReceived(), 1000u);
    EXPECT_EQ(gen.repliesReceived(), gen.requestsIssued());
    // A round trip covers two traversals plus codec latency.
    EXPECT_GT(gen.roundTrip().mean(), 10.0);
    EXPECT_LT(gen.roundTrip().mean(), 200.0);
}

TEST(ClosedLoop, WindowBoundsOutstandingLoad)
{
    // Closed loops self-throttle: even a tiny think time cannot push
    // the network into divergence; everything quiesces.
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::Baseline, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    ClosedLoopConfig lc;
    lc.window = 8;
    lc.think_time = 0;
    SyntheticDataProvider provider(DataType::Float32);
    ClosedLoopTraffic gen(net, lc, provider);
    sim.add(&gen);
    sim.run(15000);
    gen.setEnabled(false);
    ASSERT_TRUE(sim.runUntil(
        [&] { return gen.quiesced() && net.drained(); }, 200000));
    EXPECT_EQ(gen.repliesReceived(), gen.requestsIssued());
}
