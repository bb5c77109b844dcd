#include "parallel/fragment.h"

#include <algorithm>

namespace her {

namespace {

void PutPairs(ByteWriter* w, const std::vector<MatchPair>& ps) {
  w->PutVarint(ps.size());
  for (const MatchPair& p : ps) PutPair(w, p);
}

Status GetPairs(ByteReader* r, std::vector<MatchPair>* out) {
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n, /*min_bytes_each=*/2));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair p;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    out->push_back(p);
  }
  return Status::OK();
}

void PutTaggedPairs(
    ByteWriter* w, const std::vector<std::pair<MatchPair, uint32_t>>& ps) {
  w->PutVarint(ps.size());
  for (const auto& [p, tag] : ps) {
    PutPair(w, p);
    w->PutVarint(tag);
  }
}

Status GetTaggedPairs(ByteReader* r,
                      std::vector<std::pair<MatchPair, uint32_t>>* out) {
  uint64_t n = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n, /*min_bytes_each=*/3));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MatchPair p;
    uint64_t tag = 0;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    HER_RETURN_NOT_OK(r->GetVarint(&tag));
    out->emplace_back(p, static_cast<uint32_t>(tag));
  }
  return Status::OK();
}

/// Reads a PutPairs list into a key set.
Status GetPairSet(ByteReader* r, FlatTable<bool>* set) {
  std::vector<MatchPair> pairs;
  HER_RETURN_NOT_OK(GetPairs(r, &pairs));
  set->Clear();
  for (const MatchPair& p : pairs) set->TryEmplace(KeyOf(p));
  return Status::OK();
}

}  // namespace

void Subscribe(Worker& w, const MatchPair& p, uint32_t origin) {
  auto& subs = *w.subscribers.TryEmplace(KeyOf(p)).first;
  if (std::find(subs.begin(), subs.end(), origin) == subs.end()) {
    subs.push_back(origin);
  }
}

std::vector<MatchPair> SortedPairs(const FlatTable<bool>& set) {
  std::vector<MatchPair> pairs;
  pairs.reserve(set.Size());
  set.ForEach([&](uint64_t key, bool) { pairs.push_back(PairOf(key)); });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void SaveWorker(const Worker& w, ByteWriter* out) {
  PutPairs(out, w.owned_candidates);
  PutTaggedPairs(out, w.request_inbox);
  PutPairs(out, w.invalid_inbox);
  // Outboxes (assumptions_out/invalidations_out/direct_replies) are empty
  // at the checkpoint boundary — routing just drained them — so they are
  // not stored; LoadWorker leaves them default-empty.
  std::vector<uint64_t> keys;
  keys.reserve(w.subscribers.Size());
  w.subscribers.ForEach(
      [&](uint64_t key, const std::vector<uint32_t>&) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());  // KeyOf preserves pair order
  out->PutVarint(keys.size());
  for (const uint64_t key : keys) {
    PutPair(out, PairOf(key));
    out->PutIntVec(*w.subscribers.Find(key));
  }
  PutPairs(out, SortedPairs(w.notified_false));
  PutPairs(out, SortedPairs(w.assumed));
  w.engine.SaveEngineState(out);
}

Status LoadWorker(ByteReader* r, Worker* w) {
  HER_RETURN_NOT_OK(GetPairs(r, &w->owned_candidates));
  HER_RETURN_NOT_OK(GetTaggedPairs(r, &w->request_inbox));
  HER_RETURN_NOT_OK(GetPairs(r, &w->invalid_inbox));
  uint64_t n_subs = 0;
  HER_RETURN_NOT_OK(r->GetCount(&n_subs, /*min_bytes_each=*/3));
  w->subscribers.Clear();
  for (uint64_t i = 0; i < n_subs; ++i) {
    MatchPair p;
    HER_RETURN_NOT_OK(GetPair(r, &p));
    std::vector<uint32_t> subs;
    HER_RETURN_NOT_OK(r->GetIntVec(&subs));
    w->subscribers.TryEmplace(KeyOf(p), std::move(subs));
  }
  HER_RETURN_NOT_OK(GetPairSet(r, &w->notified_false));
  HER_RETURN_NOT_OK(GetPairSet(r, &w->assumed));
  HER_RETURN_NOT_OK(w->engine.LoadEngineState(r));
  if (!r->AtEnd()) {
    return Status::IOError("bsp checkpoint: trailing bytes after worker");
  }
  return Status::OK();
}

}  // namespace her
