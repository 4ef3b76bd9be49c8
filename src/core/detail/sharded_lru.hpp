// The one sharded LRU map behind the partition server's result cache
// (PartitionCache) and its per-fingerprint hint store. Each shard is an
// independently locked list + index pair, so concurrent requests for
// different keys rarely contend; recency and eviction are per shard.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fpm::core::detail {

template <class Key, class Value>
class ShardedLru {
 public:
  /// `capacity` entries in total over `shards` shards (at least one),
  /// rounded up per shard. A zero capacity stores nothing.
  ShardedLru(std::size_t capacity, std::size_t shards)
      : capacity_(capacity), shards_(std::max<std::size_t>(1, shards)) {
    per_shard_ = (capacity + shards_.size() - 1) / shards_.size();
  }

  /// When `key` is present, runs `use(entry)` under the shard lock; if it
  /// returns true the entry becomes the shard's most recently used and
  /// find() returns true.
  template <class Use>
  bool find(const Key& key, Use&& use) {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it == sh.index.end() || !use(it->second->second)) return false;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return true;
  }

  /// Makes `key` the shard's most recently used entry. A new key stores
  /// `value`, evicting the shard's least recently used entry beyond
  /// capacity; an existing key runs `merge(entry, value)` under the shard
  /// lock instead. Returns true when an entry was evicted.
  template <class Merge>
  bool put(const Key& key, Value value, Merge&& merge) {
    if (per_shard_ == 0) return false;
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      merge(it->second->second, value);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      return false;
    }
    sh.lru.emplace_front(key, std::move(value));
    sh.index.emplace(key, sh.lru.begin());
    if (sh.lru.size() <= per_shard_) return false;
    sh.index.erase(sh.lru.back().first);
    sh.lru.pop_back();
    return true;
  }

  void clear() {
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.lru.clear();
      sh.index.clear();
    }
  }

  /// Entries currently stored, over all shards.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      total += sh.lru.size();
    }
    return total;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entries = std::list<std::pair<Key, Value>>;
  struct Shard {
    mutable std::mutex mu;
    Entries lru;  ///< front = most recently used
    std::unordered_map<Key, typename Entries::iterator> index;
  };

  // std::hash of an integer is the identity in libstdc++ and libc++, so
  // the hint store's fingerprint keys shard by fingerprint % shards.
  Shard& shard_for(const Key& key) {
    return shards_[std::hash<Key>{}(key) % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t per_shard_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace fpm::core::detail
