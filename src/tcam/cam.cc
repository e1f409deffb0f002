#include "tcam/cam.h"

#include <algorithm>
#include <limits>

#include "common/log.h"

namespace approxnoc {

namespace {

std::size_t
index_buckets_for(std::size_t capacity)
{
    std::size_t want = capacity * 2;
    std::size_t n = 8;
    while (n < want)
        n <<= 1;
    return n;
}

} // namespace

Cam::Cam(std::size_t n_entries, ReplacementPolicy policy)
    : valid_(n_entries, 0), keys_(n_entries, 0), freq_(n_entries, 0),
      last_use_(n_entries, 0), index_(index_buckets_for(n_entries)),
      index_mask_(index_.size() - 1), policy_(policy)
{
    ANOC_ASSERT(n_entries > 0, "CAM must have at least one entry");
}

std::size_t
Cam::findSlot(Word key) const
{
    std::size_t b = hashKey(key) & index_mask_;
    while (true) {
        const Bucket &x = index_[b];
        if (x.slot == kEmpty)
            return kNoSlot;
        if (x.key == key)
            return static_cast<std::size_t>(x.slot);
        b = (b + 1) & index_mask_;
    }
}

void
Cam::indexInsert(Word key, std::size_t slot)
{
    std::size_t b = hashKey(key) & index_mask_;
    while (index_[b].slot != kEmpty)
        b = (b + 1) & index_mask_;
    index_[b] = Bucket{key, static_cast<std::int32_t>(slot)};
}

void
Cam::indexErase(Word key)
{
    std::size_t hole = hashKey(key) & index_mask_;
    while (true) {
        ANOC_ASSERT(index_[hole].slot != kEmpty,
                    "CAM index entry missing on erase");
        if (index_[hole].key == key)
            break;
        hole = (hole + 1) & index_mask_;
    }
    // Backward-shift deletion: walk the rest of the chain and move
    // back every key whose home bucket lies cyclically at or before
    // the hole, so every live key stays reachable from its home
    // without a tombstone.
    for (std::size_t b = (hole + 1) & index_mask_; index_[b].slot != kEmpty;
         b = (b + 1) & index_mask_) {
        std::size_t home = hashKey(index_[b].key) & index_mask_;
        if (((b - home) & index_mask_) >= ((b - hole) & index_mask_)) {
            index_[hole] = index_[b];
            hole = b;
        }
    }
    index_[hole].slot = kEmpty;
}

void
Cam::resetSlot(std::size_t slot)
{
    valid_[slot] = 0;
    keys_[slot] = 0;
    freq_[slot] = 0;
    last_use_[slot] = 0;
}

std::optional<std::size_t>
Cam::search(Word key)
{
    ++searches_;
    ++tick_;
    std::size_t slot = findSlot(key);
    if (slot == kNoSlot)
        return std::nullopt;
    last_use_[slot] = tick_;
    ++freq_[slot];
    return slot;
}

std::optional<std::size_t>
Cam::peek(Word key) const
{
    ++peeks_;
    std::size_t slot = findSlot(key);
    if (slot == kNoSlot)
        return std::nullopt;
    return slot;
}

std::size_t
Cam::pickVictim() const
{
    const std::size_t n = keys_.size();
    // Prefer the lowest-index invalid slot.
    if (valid_count_ < n)
        for (std::size_t i = 0; i < n; ++i)
            if (!valid_[i])
                return i;

    // All valid: minimum replacement score; strict '<' makes ties break
    // deterministically towards the lowest slot index.
    const std::uint64_t *score =
        policy_ == ReplacementPolicy::Lru ? last_use_.data() : freq_.data();
    std::size_t victim = 0;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
        if (score[i] < best) {
            best = score[i];
            victim = i;
        }
    }
    return victim;
}

std::size_t
Cam::victimFor(Word key) const
{
    if (auto hit = peek(key))
        return *hit;
    return pickVictim();
}

std::size_t
Cam::insert(Word key)
{
    ++writes_;
    ++tick_;
    std::size_t slot = victimFor(key);
    bool rehit = valid_[slot] && keys_[slot] == key;
    if (!rehit) {
        if (valid_[slot])
            indexErase(keys_[slot]);
        else
            ++valid_count_;
        indexInsert(key, slot);
    }
    valid_[slot] = 1;
    keys_[slot] = key;
    last_use_[slot] = tick_;
    freq_[slot] = rehit ? freq_[slot] + 1 : 1;
    return slot;
}

void
Cam::erase(std::size_t slot)
{
    ANOC_ASSERT(slot < keys_.size(), "CAM slot out of range");
    if (valid_[slot]) {
        indexErase(keys_[slot]);
        --valid_count_;
    }
    resetSlot(slot);
}

void
Cam::clear()
{
    for (std::size_t i = 0; i < keys_.size(); ++i)
        resetSlot(i);
    std::fill(index_.begin(), index_.end(), Bucket{});
    valid_count_ = 0;
}

void
Cam::touch(std::size_t slot)
{
    ANOC_ASSERT(slot < keys_.size(), "CAM slot out of range");
    ++tick_;
    last_use_[slot] = tick_;
    ++freq_[slot];
}

} // namespace approxnoc
