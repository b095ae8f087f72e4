// A byte-capped LRU map: the eviction policy of the ProgramCache. Not
// thread-safe; the caller keeps its own lock and its own counters.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace parad {

template <class K, class V, class Hash = std::hash<K>>
class ByteLru {
 public:
  /// The value cached under `k`, now most recently used; nullptr if absent.
  V* get(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.pos);
    return &it->second.value;
  }

  /// Inserts `v` (replacing any entry under `k`) as the most recently used
  /// entry, accounted at `bytes`. Then, with a nonzero `cap`, evicts least
  /// recently used entries while the total exceeds `cap` and more than one
  /// entry is left, so the fresh entry always survives. Returns the number
  /// of entries evicted.
  std::size_t put(const K& k, V v, std::size_t bytes, std::size_t cap) {
    auto it = map_.find(k);
    if (it != map_.end()) {
      bytes_ -= it->second.bytes;
      it->second.value = std::move(v);
      it->second.bytes = bytes;
      order_.splice(order_.begin(), order_, it->second.pos);
    } else {
      order_.push_front(k);
      map_.emplace(k, Entry{std::move(v), bytes, order_.begin()});
    }
    bytes_ += bytes;
    std::size_t evicted = 0;
    while (cap != 0 && bytes_ > cap && map_.size() > 1) {
      eraseAt(map_.find(order_.back()));
      ++evicted;
    }
    return evicted;
  }

  bool erase(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return false;
    eraseAt(it);
    return true;
  }

  /// Erases every entry for which `pred(key, value)` holds; returns how many.
  template <class Pred>
  std::size_t eraseIf(Pred pred) {
    std::size_t n = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second.value)) {
        it = eraseAt(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  /// Drops everything; returns how many entries there were.
  std::size_t clear() {
    std::size_t n = map_.size();
    map_.clear();
    order_.clear();
    bytes_ = 0;
    return n;
  }

  std::size_t size() const { return map_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    V value;
    std::size_t bytes;
    typename std::list<K>::iterator pos;  // in order_, front = MRU
  };
  using Map = std::unordered_map<K, Entry, Hash>;
  typename Map::iterator eraseAt(typename Map::iterator it) {
    bytes_ -= it->second.bytes;
    order_.erase(it->second.pos);
    return map_.erase(it);
  }
  Map map_;
  std::list<K> order_;
  std::size_t bytes_ = 0;
};

}  // namespace parad
