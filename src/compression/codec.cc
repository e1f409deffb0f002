#include "compression/codec.h"

#include <algorithm>

#include "common/relative_error.h"
#include "telemetry/error_profile.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

void
CodecSystem::bindProfiler(telemetry::PhaseProfiler *prof)
{
    profiler_ = prof;
    if (profiler_)
        apply_pending_phase_ = profiler_->definePhase("codec.apply_pending");
}

void
CodecSystem::recordQoR(const DataBlock &precise, const EncodedBlock &enc,
                       NodeId src, NodeId dst)
{
    // Each NR unit covers `run` source words; an approximated unit
    // reconstructs every covered word as `decoded`. Only words whose
    // bits actually changed carry error — a word that happened to
    // equal the substituted pattern is an exact hit.
    std::size_t i = 0;
    for (const EncodedWord &ew : enc.words()) {
        if (ew.approximated) {
            for (unsigned j = 0; j < ew.run && i + j < precise.size(); ++j) {
                const Word w = precise.word(i + j);
                if (w != ew.decoded)
                    qor_->record(src, dst,
                                 signed_relative_error(w, ew.decoded,
                                                       precise.type()));
            }
        }
        i += ew.run;
    }
}

} // namespace approxnoc
