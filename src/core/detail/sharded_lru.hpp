// The one sharded LRU map behind the partition server's result cache
// (PartitionCache) and its per-fingerprint hint store. Each shard is an
// independently locked list + index pair, so concurrent requests for
// different keys rarely contend; recency and eviction are per shard.
//
// Each key is stored once, in its list node: the index maps a reference to
// that key, plus the key's hash, to the node. std::list nodes never move
// (splice relinks them), so the reference stays valid until the entry
// leaves the list, and every path that removes an entry drops its index
// slot first. A lookup hashes its key once, for the shard and the index.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fpm::core::detail {

template <class Key, class Value>
class ShardedLru {
 public:
  using Entry = std::pair<Key, Value>;

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
    const KeyRef ref = ref_to(key);
    Shard& sh = shard_for(ref);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(ref);
    if (it == sh.index.end() || !use(it->second->second)) return false;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return true;
  }

  /// Makes `key` the shard's most recently used entry. A new key stores
  /// `value`, evicting the shard's least recently used entry beyond
  /// capacity; an existing key runs `merge(entry, value)` under the shard
  /// lock instead. Returns the evicted entry, if any.
  template <class Merge>
  std::optional<Entry> put(const Key& key, Value value, Merge&& merge) {
    if (per_shard_ == 0) return std::nullopt;
    const KeyRef ref = ref_to(key);
    Shard& sh = shard_for(ref);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(ref);
    if (it != sh.index.end()) {
      merge(it->second->second, value);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      return std::nullopt;
    }
    sh.lru.emplace_front(key, std::move(value));
    try {
      sh.index.emplace(KeyRef{&sh.lru.front().first, ref.hash},
                       sh.lru.begin());
    } catch (...) {
      sh.lru.pop_front();
      throw;
    }
    if (sh.lru.size() <= per_shard_) return std::nullopt;
    sh.index.erase(ref_to(sh.lru.back().first));
    std::optional<Entry> victim(std::move(sh.lru.back()));
    sh.lru.pop_back();
    return victim;
  }

  /// Removes every entry, then runs `drop(key, value)` on each outside the
  /// shard lock.
  template <class Drop>
  void clear(Drop&& drop) {
    for (Shard& sh : shards_) {
      Entries dropped;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.index.clear();
        dropped.swap(sh.lru);
      }
      for (const Entry& e : dropped) drop(e.first, e.second);
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
  using Entries = std::list<Entry>;
  /// A key in the index: the address of the key held by its list node (or
  /// of the caller's key during a lookup) and the key's hash.
  struct KeyRef {
    const Key* key;
    std::size_t hash;
  };
  struct RefHash {
    std::size_t operator()(const KeyRef& r) const noexcept { return r.hash; }
  };
  struct RefEq {
    bool operator()(const KeyRef& a, const KeyRef& b) const {
      return a.hash == b.hash && *a.key == *b.key;
    }
  };
  struct Shard {
    mutable std::mutex mu;
    Entries lru;  ///< front = most recently used
    std::unordered_map<KeyRef, typename Entries::iterator, RefHash, RefEq>
        index;
  };

  static KeyRef ref_to(const Key& key) {
    return KeyRef{&key, std::hash<Key>{}(key)};
  }
  // std::hash of an integer is the identity in libstdc++ and libc++, so
  // the hint store's fingerprint keys shard by fingerprint % shards.
  Shard& shard_for(const KeyRef& ref) {
    return shards_[ref.hash % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t per_shard_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace fpm::core::detail
