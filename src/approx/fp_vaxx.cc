#include "approx/fp_vaxx.h"

namespace approxnoc {

namespace {

/** Words covered by the stack-allocated don't-care hoist; larger
 * blocks (none in practice — cache blocks are 16 words) fall back to
 * recomputing per word, which encodes identically. */
constexpr std::size_t kMaxHoistedWords = 64;

} // namespace

EncodedBlock
FpVaxxCodec::encode(const DataBlock &block, NodeId src, NodeId dst, Cycle)
{
    noteEncoded(block.size());
    const bool approximable = block.approximable() &&
                              block.type() != DataType::Raw &&
                              avcl_.errorModel().enabled();
    EncodedBlock enc =
        approximable
            ? fpc_encode_block(block,
                               [&](std::size_t i) -> unsigned {
                                   Word w = block.word(i);
                                   ApproxDecision d =
                                       avcl_.analyze(w, block.type());
                                   if (d.bypass)
                                       return 0u;
                                   if (mode_ == FpcPriorityMode::PreferExact &&
                                       fpc_match(w, 0))
                                       return 0u;
                                   return d.dont_care_bits;
                               })
            : fpc_encode_block(block, [](std::size_t) { return 0u; });
    noteBlockEncoded(enc, block, src, dst);
    return enc;
}

EncodedBlock
FpVaxxCodec::encodeBlock(const DataBlock &block, NodeId src, NodeId dst,
                         Cycle)
{
    noteEncoded(block.size());
    const bool approximable = block.approximable() &&
                              block.type() != DataType::Raw &&
                              avcl_.errorModel().enabled();
    EncodedBlock enc;
    if (!approximable) {
        enc = fpc_encode_block(block, [](std::size_t) { return 0u; });
    } else if (block.size() > kMaxHoistedWords) {
        enc = fpc_encode_block(block,
                               [&](std::size_t i) -> unsigned {
                                   Word w = block.word(i);
                                   ApproxDecision d =
                                       avcl_.analyze(w, block.type());
                                   if (d.bypass)
                                       return 0u;
                                   if (mode_ == FpcPriorityMode::PreferExact &&
                                       fpc_match(w, 0))
                                       return 0u;
                                   return d.dont_care_bits;
                               });
    } else {
        unsigned k[kMaxHoistedWords];
        for (std::size_t i = 0; i < block.size(); ++i) {
            Word w = block.word(i);
            ApproxDecision d = avcl_.analyze(w, block.type());
            if (d.bypass)
                k[i] = 0;
            else if (mode_ == FpcPriorityMode::PreferExact && fpc_match(w, 0))
                k[i] = 0;
            else
                k[i] = d.dont_care_bits;
        }
        enc = fpc_encode_block(block, [&](std::size_t i) { return k[i]; });
    }
    noteBlockEncoded(enc, block, src, dst);
    return enc;
}

DataBlock
FpVaxxCodec::decode(const EncodedBlock &enc, NodeId, NodeId, Cycle)
{
    // The NR is plain FPC; the decoder is unchanged (paper: the decoder
    // never knows approximation happened).
    noteDecoded(enc.wordCount());
    noteBlockDecoded();
    std::vector<Word> ws(enc.wordCount());
    noteMismatches(fpc_decode_block(enc, ws.data()));
    return DataBlock(std::move(ws), enc.type(), enc.approximable());
}

} // namespace approxnoc
