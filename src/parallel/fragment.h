#ifndef HER_PARALLEL_FRAGMENT_H_
#define HER_PARALLEL_FRAGMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/flat_table.h"
#include "common/status.h"
#include "core/match_engine.h"

namespace her {

/// Per-fragment state of a BSP run: a private engine plus this superstep's
/// inboxes.
///
/// A Worker is one logical FRAGMENT of the computation: crash recovery
/// never merges fragments (the greedy lineage matching is not confluent,
/// so merging would change which fixpoint the run lands on). Instead a
/// crashed fragment is rebuilt in place from its last boundary capture
/// (its SaveWorker bytes) with its state, locality and routing unchanged.
///
/// The pair-keyed state lives in flat tables keyed by KeyOf(pair): they
/// free in one pass over their buckets, with no node per pair.
struct Worker {
  explicit Worker(const MatchContext& ctx) : engine(ctx) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  MatchEngine engine;
  std::vector<MatchPair> owned_candidates;  // root candidates to verify
  // Assumption requests to answer, tagged with the requesting fragment.
  std::vector<std::pair<MatchPair, uint32_t>> request_inbox;
  std::vector<MatchPair> invalid_inbox;     // remote invalidations to apply
  // Outboxes filled during a superstep, routed between supersteps.
  std::vector<MatchPair> assumptions_out;
  std::vector<MatchPair> invalidations_out;
  // For each owned pair that remote fragments assumed: who to notify when
  // its verdict is (or becomes) false, in subscription order. This
  // replaces broadcasting — the GRAPE messages follow the cross edges that
  // created the assumption.
  FlatTable<std::vector<uint32_t>> subscribers;
  // Replies owed to specific requesters whose pair is already false.
  std::vector<std::pair<MatchPair, uint32_t>> direct_replies;
  // Key sets (the value is unused). notified_false: pairs whose true->false
  // FLIP was already broadcast to subscribers; a pair flips at most once,
  // so one broadcast suffices, and requesters that arrive later are
  // answered directly at request time instead. assumed: every border pair
  // this fragment has optimistically assumed (requester side, never
  // drained); the fault-recovery audit re-derives lost messages from these
  // sets, checking each believed-true assumption against its owner's
  // authoritative verdict.
  FlatTable<bool> notified_false;
  FlatTable<bool> assumed;
};

/// Registers `origin` as a subscriber of `p` at worker `w`, once
/// (duplicated/re-sent requests must not grow the list unboundedly).
void Subscribe(Worker& w, const MatchPair& p, uint32_t origin);

/// The pairs of a key set, sorted (the canonical order of checkpoint bytes
/// and of the audit).
std::vector<MatchPair> SortedPairs(const FlatTable<bool>& set);

/// Serializes a fragment at a superstep boundary (outboxes empty) in
/// canonical order: the same fragment state always produces the same bytes.
void SaveWorker(const Worker& w, ByteWriter* out);

/// Exact inverse of SaveWorker into a fresh fragment.
Status LoadWorker(ByteReader* r, Worker* w);

}  // namespace her

#endif  // HER_PARALLEL_FRAGMENT_H_
