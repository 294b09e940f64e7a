// dcp::SignatureLru — the one capacity-bounded LRU behind every plan cache tier: the
// Engine's plan cache and auto-tune table, the server's peer records, PlanClient and
// ReplicaSet. Keys are PlanSignatures, which fully determine what they key, so an
// existing entry is never replaced: a racing inserter gets the incumbent back and
// equal signatures keep sharing one value.
//
// Not synchronized. Each owner guards its instance with its own annotated dcp::Mutex
// (DCP_GUARDED_BY), so the lock-order analysis sees the owner's lock, not this class.
#ifndef DCP_CORE_SIGNATURE_LRU_H_
#define DCP_CORE_SIGNATURE_LRU_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan_signature.h"

namespace dcp {

template <typename V>
class SignatureLru {
 public:
  // Capacity <= 0 stores nothing: every Insert hands its value straight back.
  explicit SignatureLru(int64_t capacity) : capacity_(capacity) {}

  // The resident value, marked most recently used; nullptr on a miss. The pointer is
  // valid until the next Insert or Clear.
  V* Find(const PlanSignature& sig) {
    const auto it = index_.find(sig);
    if (it == index_.end()) {
      return nullptr;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  // Inserts `value` unless `sig` is already resident, and returns the resident value
  // (the incumbent wins and becomes most recent). Entries pushed out over capacity are
  // appended to `evicted`, least recent first, when it is non-null.
  V Insert(const PlanSignature& sig, V value, std::vector<V>* evicted = nullptr) {
    if (capacity_ <= 0) {
      return value;
    }
    if (V* resident = Find(sig)) {
      return *resident;
    }
    entries_.emplace_front(sig, std::move(value));
    index_.emplace(sig, entries_.begin());
    while (static_cast<int64_t>(entries_.size()) > capacity_) {
      if (evicted != nullptr) {
        evicted->push_back(std::move(entries_.back().second));
      }
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
    return entries_.front().second;
  }

  size_t size() const { return entries_.size(); }

  void Clear() {
    entries_.clear();
    index_.clear();
  }

  // Calls f(sig, value) for every entry, most recent first.
  template <typename F>
  void ForEach(F&& f) const {
    for (const auto& [sig, value] : entries_) {
      f(sig, value);
    }
  }

 private:
  using Entry = std::pair<PlanSignature, V>;

  int64_t capacity_;
  std::list<Entry> entries_;  // Front = most recently used.
  std::unordered_map<PlanSignature, typename std::list<Entry>::iterator,
                     PlanSignatureHash>
      index_;
};

}  // namespace dcp

#endif  // DCP_CORE_SIGNATURE_LRU_H_
