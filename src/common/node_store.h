#ifndef PEERCACHE_COMMON_NODE_STORE_H_
#define PEERCACHE_COMMON_NODE_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/flat_table_arena.h"

namespace peercache::overlay {

/// Cache-friendly node storage shared by the overlay simulators.
///
/// The seed implementation kept `std::map<uint64_t, Node>` plus a separate
/// `std::set<uint64_t>` of live ids, so every hot-path membership probe
/// (one per routing-table entry considered per hop) chased a red-black
/// tree, and every successor scan walked heap-scattered tree nodes. This
/// container keeps the data the lookup path actually touches in flat,
/// id-sorted arrays:
///
///   * `live_ids_`   — sorted, contiguous live ids: binary searches for
///                     responsible-node / successor queries walk one array;
///   * `live_slots_` — slot of each live id, parallel to `live_ids_`, so a
///                     ring search yields the node without a second lookup;
///   * `alive_`      — one byte per slot: `IsAlive` is an index probe plus
///                     a flat byte load instead of an ordered-set walk;
///   * `index_`      — id → slot index: a flat open-addressed table with
///                     linear probing, a power-of-two size and load <= 1/2.
///                     A probe is usually one 16-byte entry on one cache
///                     line, where a chained hash map costs a bucket load
///                     and a dependent node load. Slots are append-only and
///                     dead nodes keep theirs, so the table never deletes.
///
/// Node records themselves live in fixed-size slabs (kSlabNodes records
/// each, placement-new constructed): slots are append-only and a slab never
/// moves, so `Node*` handed out by `Get` stays valid across later
/// insertions — the stability guarantee the old deque provided, without the
/// deque's per-block bookkeeping or its small default block size for large
/// Node types. The store also owns the FlatTableArena that backs the node
/// records' FlatList routing slices (`tables()`), which keeps one network's
/// entire routing state in a handful of large allocations and makes
/// `MemoryUsage()` accounting exact.
///
/// Membership changes (churn) are O(live) array edits — rare next to the
/// millions of lookups they serve; bulk construction goes through
/// `BulkMarkAlive` which is O(n log n) total instead of O(n^2).
template <typename Node>
class NodeStore {
 public:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  static constexpr uint32_t kSlabShift = 10;
  static constexpr uint32_t kSlabNodes = uint32_t{1} << kSlabShift;

  NodeStore() = default;
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  NodeStore(NodeStore&& other) noexcept
      : slabs_(std::move(other.slabs_)),
        count_(other.count_),
        alive_(std::move(other.alive_)),
        live_ids_(std::move(other.live_ids_)),
        live_slots_(std::move(other.live_slots_)),
        index_(std::move(other.index_)),
        tables_(std::move(other.tables_)) {
    other.count_ = 0;
    other.slabs_.clear();
  }
  NodeStore& operator=(NodeStore&& other) noexcept {
    if (this != &other) {
      DestroyNodes();
      slabs_ = std::move(other.slabs_);
      count_ = other.count_;
      alive_ = std::move(other.alive_);
      live_ids_ = std::move(other.live_ids_);
      live_slots_ = std::move(other.live_slots_);
      index_ = std::move(other.index_);
      tables_ = std::move(other.tables_);
      other.count_ = 0;
      other.slabs_.clear();
    }
    return *this;
  }
  ~NodeStore() { DestroyNodes(); }

  /// The arena backing this store's FlatList routing slices.
  FlatTableArena& tables() { return tables_; }
  const FlatTableArena& tables() const { return tables_; }

  /// One entry of the id→slot index; `slot == kNoSlot` marks it empty.
  struct IndexEntry {
    uint64_t id;
    uint32_t slot;
  };

  /// Pre-sizes every index structure for `n` nodes (slab pointers, liveness
  /// flags, live arrays, and the id→slot index) so a bulk build performs no
  /// incremental rehash or reallocation.
  void Reserve(size_t n) {
    slabs_.reserve((n + kSlabNodes - 1) >> kSlabShift);
    alive_.reserve(n);
    live_ids_.reserve(n);
    live_slots_.reserve(n);
    if (2 * n > index_.size()) Rehash(2 * n);
  }

  /// Slot of `id`, or kNoSlot when the id has never been added.
  uint32_t SlotOf(uint64_t id) const {
    if (index_.empty()) return kNoSlot;
    const size_t mask = index_.size() - 1;
    for (size_t i = Home(id, mask);; i = (i + 1) & mask) {
      const IndexEntry& e = index_[i];
      if (e.slot == kNoSlot || e.id == id) return e.slot;
    }
  }

  /// Entries in the id→slot index (a power of two, at least twice size()).
  size_t index_capacity() const { return index_.size(); }

  Node* Get(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : &at_slot(slot);
  }
  const Node* Get(uint64_t id) const {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : &at_slot(slot);
  }

  Node& at_slot(uint32_t slot) {
    return *(SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1)));
  }
  const Node& at_slot(uint32_t slot) const {
    return *(SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1)));
  }

  size_t size() const { return count_; }

  /// True iff the id's node exists and is currently alive. One index probe
  /// plus one flat byte load.
  bool IsAlive(uint64_t id) const {
    const uint32_t slot = SlotOf(id);
    return slot != kNoSlot && alive_[slot] != 0;
  }

  /// True iff slot `slot` is currently alive (no index probe).
  bool IsAliveSlot(uint32_t slot) const { return alive_[slot] != 0; }

  /// Creates the node for `id` if absent (constructed from `args`), else
  /// returns the existing record. Second member is true on insertion.
  template <typename... Args>
  std::pair<Node*, bool> Emplace(uint64_t id, Args&&... args) {
    if (const uint32_t existing = SlotOf(id); existing != kNoSlot) {
      return {&at_slot(existing), false};
    }
    if (2 * (size_t{count_} + 1) > index_.size()) Rehash(2 * index_.size());
    const uint32_t slot = count_;
    if ((slot >> kSlabShift) >= slabs_.size()) {
      slabs_.emplace_back(new std::byte[sizeof(Node) * kSlabNodes]);
    }
    Node* record = SlabBase(slot >> kSlabShift) + (slot & (kSlabNodes - 1));
    ::new (static_cast<void*>(record)) Node(std::forward<Args>(args)...);
    ++count_;
    alive_.push_back(0);
    Insert(id, slot);
    return {record, true};
  }

  /// Marks an existing id live and inserts it into the sorted live arrays.
  /// No-op if already live.
  void MarkAlive(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    assert(slot != kNoSlot);
    if (alive_[slot]) return;
    alive_[slot] = 1;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
    live_ids_.insert(live_ids_.begin() + static_cast<std::ptrdiff_t>(pos), id);
    live_slots_.insert(live_slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                       slot);
  }

  /// Marks every id in `ids` live in one pass: O((m + live) log m) instead
  /// of m separate O(live) sorted insertions — the difference between a
  /// quadratic and a linearithmic bulk build at n = 2^20. Ids must already
  /// exist; ids that are already live are skipped.
  void BulkMarkAlive(const std::vector<uint64_t>& ids) {
    std::vector<std::pair<uint64_t, uint32_t>> added;
    added.reserve(ids.size());
    for (uint64_t id : ids) {
      const uint32_t slot = SlotOf(id);
      assert(slot != kNoSlot);
      if (alive_[slot]) continue;
      alive_[slot] = 1;
      added.emplace_back(id, slot);
    }
    if (added.empty()) return;
    std::sort(added.begin(), added.end());
    if (live_ids_.empty()) {
      live_ids_.reserve(added.size());
      live_slots_.reserve(added.size());
      for (const auto& [id, slot] : added) {
        live_ids_.push_back(id);
        live_slots_.push_back(slot);
      }
      return;
    }
    // Merge the sorted batch with the existing sorted live arrays.
    std::vector<uint64_t> merged_ids;
    std::vector<uint32_t> merged_slots;
    merged_ids.reserve(live_ids_.size() + added.size());
    merged_slots.reserve(live_ids_.size() + added.size());
    size_t i = 0, j = 0;
    while (i < live_ids_.size() || j < added.size()) {
      if (j == added.size() ||
          (i < live_ids_.size() && live_ids_[i] < added[j].first)) {
        merged_ids.push_back(live_ids_[i]);
        merged_slots.push_back(live_slots_[i]);
        ++i;
      } else {
        merged_ids.push_back(added[j].first);
        merged_slots.push_back(added[j].second);
        ++j;
      }
    }
    live_ids_ = std::move(merged_ids);
    live_slots_ = std::move(merged_slots);
  }

  /// Marks a live id dead and removes it from the live arrays. No-op if
  /// not live.
  void MarkDead(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    assert(slot != kNoSlot);
    if (!alive_[slot]) return;
    alive_[slot] = 0;
    const size_t pos = static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
    assert(pos < live_ids_.size() && live_ids_[pos] == id);
    live_ids_.erase(live_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
    live_slots_.erase(live_slots_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  size_t live_count() const { return live_ids_.size(); }

  /// Sorted live ids — the contiguous array ring searches walk.
  const std::vector<uint64_t>& live_ids() const { return live_ids_; }

  /// Slot of live_ids()[i].
  uint32_t live_slot(size_t i) const { return live_slots_[i]; }

  /// Index of the first live id >= `id` (== live_ids().size() when none).
  size_t LowerBoundLive(uint64_t id) const {
    return static_cast<size_t>(
        std::lower_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
  }

  /// Index of the first live id > `id` (== live_ids().size() when none).
  size_t UpperBoundLive(uint64_t id) const {
    return static_cast<size_t>(
        std::upper_bound(live_ids_.begin(), live_ids_.end(), id) -
        live_ids_.begin());
  }

  /// First live id clockwise from `from` (inclusive), wrapping at the top
  /// of the id space. Requires at least one live node.
  uint64_t FirstLiveAtOrAfter(uint64_t from) const {
    assert(!live_ids_.empty());
    size_t pos = LowerBoundLive(from);
    if (pos == live_ids_.size()) pos = 0;  // wrap
    return live_ids_[pos];
  }

  /// Deterministic footprint accounting for the scale-frontier telemetry.
  /// Every field is exact: each structure is a flat array counted at its
  /// capacity.
  StoreMemoryStats MemoryUsage() const {
    StoreMemoryStats s;
    s.node_bytes = slabs_.size() * kSlabNodes * sizeof(Node);
    s.index_bytes = alive_.capacity() * sizeof(uint8_t) +
                    live_ids_.capacity() * sizeof(uint64_t) +
                    live_slots_.capacity() * sizeof(uint32_t) +
                    index_.capacity() * sizeof(IndexEntry);
    s.table_bytes = tables_.used_bytes();
    s.arena_bytes = tables_.allocated_bytes();
    const size_t total = s.node_bytes + s.index_bytes + s.arena_bytes;
    s.bytes_per_node =
        count_ == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count_);
    return s;
  }

 private:
  static constexpr size_t kMinIndex = 16;

  /// Home bucket of `id`: a multiplicative (Fibonacci) hash, so sequential
  /// ids and ids that agree in their low or high bits still spread.
  static size_t Home(uint64_t id, size_t mask) {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  }

  /// Places a new id (known absent) at the first empty entry of its probe
  /// run. The caller keeps the load at or below one half.
  void Insert(uint64_t id, uint32_t slot) {
    const size_t mask = index_.size() - 1;
    size_t i = Home(id, mask);
    while (index_[i].slot != kNoSlot) i = (i + 1) & mask;
    index_[i] = IndexEntry{id, slot};
  }

  /// Rebuilds the index with the smallest power-of-two size >= `min_size`.
  void Rehash(size_t min_size) {
    size_t size = kMinIndex;
    while (size < min_size) size <<= 1;
    std::vector<IndexEntry> old(size, IndexEntry{0, kNoSlot});
    old.swap(index_);
    for (const IndexEntry& e : old) {
      if (e.slot != kNoSlot) Insert(e.id, e.slot);
    }
  }

  Node* SlabBase(size_t slab) {
    return std::launder(reinterpret_cast<Node*>(slabs_[slab].get()));
  }
  const Node* SlabBase(size_t slab) const {
    return std::launder(reinterpret_cast<const Node*>(slabs_[slab].get()));
  }

  void DestroyNodes() {
    for (uint32_t slot = 0; slot < count_; ++slot) at_slot(slot).~Node();
    count_ = 0;
  }

  std::vector<std::unique_ptr<std::byte[]>> slabs_;  // kSlabNodes records each
  uint32_t count_ = 0;                               // constructed records
  std::vector<uint8_t> alive_;   // slot-indexed liveness flags
  std::vector<uint64_t> live_ids_;    // sorted live ids (contiguous)
  std::vector<uint32_t> live_slots_;  // parallel slots of live_ids_
  std::vector<IndexEntry> index_;     // id → slot, open-addressed
  FlatTableArena tables_;  // backing words for the nodes' FlatList slices
};

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_NODE_STORE_H_
