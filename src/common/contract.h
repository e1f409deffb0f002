/**
 * @file
 * Machine-checked concurrency-contract annotations.
 *
 * Two documented isolation contracts remain: the codec flow-isolation
 * and destination-isolation contracts (compression/codec.h,
 * docs/perf.md). The macros here turn the "which shared state is this
 * field?" part of those comments into declarations that
 * `tools/anoc_lint` parses and enforces (rule C1,
 * docs/static-analysis.md). Every macro expands to nothing (or a
 * vacuous static_assert), so annotated code compiles identically with
 * any toolchain — the linter is the only consumer.
 *
 * No code in the tree runs a codec concurrently (the simulator is
 * serial, and parallel sweeps give each point its own codec), so only
 * the isolation tests rely on these contracts. Deleting the
 * contracts, these macros and rule C1 is the next simplification on
 * ROADMAP.
 *
 * Categories:
 *
 *  - ANOC_SHARD_LOCAL — mutable state owned by exactly one shard of
 *    the relevant partition (one source endpoint on the encode side,
 *    one destination endpoint on the decode side). Only the owning
 *    shard may touch it during a parallel phase; per-endpoint vectors
 *    indexed by the shard key are the canonical shape.
 *
 *  - ANOC_CROSS_SHARD(RelaxedCounter) — state shared across shards
 *    inside a parallel phase. The only admissible kind is the
 *    commutative relaxed-atomic counter (common/relaxed_counter.h):
 *    sums are interleaving-independent, which is what keeps totals
 *    byte-identical at any job count. The argument is deliberately
 *    restricted; anoc-lint rejects anything else.
 *
 *  - ANOC_REGION_SHARED — state visible to every shard but mutated
 *    only in serial context (construction, bind-time wiring, or while
 *    no sharded batch is in flight). Configuration, bound telemetry
 *    sinks and wiring pointers live here.
 *
 * A class opts into enforcement with ANOC_ISOLATION_CONTRACT(...),
 * naming the contract section(s) it implements; from then on anoc-lint
 * requires every non-static data member of that class to carry exactly
 * one of the three annotations above.
 */
#ifndef APPROXNOC_COMMON_CONTRACT_H
#define APPROXNOC_COMMON_CONTRACT_H

/**
 * Class-level marker: this type's mutable state is governed by the
 * named isolation contract(s). Conventional arguments:
 * `flow_isolation`, `destination_isolation`, `probe_isolation` (the
 * read-only concurrent match-engine probes).
 * Parsed by anoc-lint; expands to a vacuous assertion so a trailing
 * semicolon is well-formed at class scope.
 */
#define ANOC_ISOLATION_CONTRACT(...) \
    static_assert(true, "anoc-lint isolation contract marker")

/** Field annotation: owned by one shard of the contract's partition. */
#define ANOC_SHARD_LOCAL

/** Field annotation: shared across shards; @p kind must be
 *  RelaxedCounter (enforced by anoc-lint rule C1). */
#define ANOC_CROSS_SHARD(kind)

/** Field annotation: read anywhere, written only in serial context. */
#define ANOC_REGION_SHARED

#endif // APPROXNOC_COMMON_CONTRACT_H
