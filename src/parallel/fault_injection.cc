#include "parallel/fault_injection.h"

#include "common/rng.h"

namespace her {

namespace {

/// Folds the message identity into one 64-bit key. Each component is mixed
/// before combining so low-entropy inputs (small vertex ids, worker
/// indices) still spread over the whole key space.
uint64_t MessageKey(uint64_t seed, FaultChannel channel, const MatchPair& pair,
                    uint32_t from, uint32_t to, uint64_t salt) {
  uint64_t h = Mix64(seed ^ (static_cast<uint64_t>(channel) << 56) ^ salt);
  h = Mix64(h ^ static_cast<uint64_t>(pair.first));
  h = Mix64(h ^ static_cast<uint64_t>(pair.second));
  h = Mix64(h ^ (static_cast<uint64_t>(from) << 32) ^ to);
  return h;
}

}  // namespace

bool FaultInjector::DuplicateMessage(FaultChannel channel,
                                     const MatchPair& pair, uint32_t from,
                                     uint32_t to) {
  if (plan_.dup_prob <= 0.0) return false;
  const uint64_t h =
      MessageKey(plan_.seed, channel, pair, from, to, /*salt=*/0xd0bb);
  if (HashToUniform(h) >= plan_.dup_prob) return false;
  CountInjection();
  return true;
}

}  // namespace her
