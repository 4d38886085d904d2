#include "common/node_store.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace peercache::overlay {
namespace {

struct TestNode {
  int tag = 0;
  explicit TestNode(int t) : tag(t) {}
};

TEST(NodeStore, EmplaceCreatesOnceAndReturnsExisting) {
  NodeStore<TestNode> store;
  auto [first, inserted] = store.Emplace(42, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->tag, 7);

  auto [again, reinserted] = store.Emplace(42, 99);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->tag, 7);  // original construction args win
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStore, LivenessIsSeparateFromExistence) {
  NodeStore<TestNode> store;
  store.Emplace(5, 0);
  EXPECT_FALSE(store.IsAlive(5));  // exists but not yet marked
  EXPECT_FALSE(store.IsAlive(6));  // never added

  store.MarkAlive(5);
  EXPECT_TRUE(store.IsAlive(5));
  EXPECT_EQ(store.live_count(), 1u);

  store.MarkDead(5);
  EXPECT_FALSE(store.IsAlive(5));
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_NE(store.Get(5), nullptr);  // record survives death
}

TEST(NodeStore, MarkAliveAndDeadAreIdempotent) {
  NodeStore<TestNode> store;
  store.Emplace(9, 0);
  store.MarkAlive(9);
  store.MarkAlive(9);
  EXPECT_EQ(store.live_count(), 1u);
  store.MarkDead(9);
  store.MarkDead(9);
  EXPECT_EQ(store.live_count(), 0u);
}

TEST(NodeStore, LiveIdsStaySortedUnderArbitraryChurn) {
  NodeStore<TestNode> store;
  const std::vector<uint64_t> ids = {90, 10, 50, 70, 30, 20, 80};
  for (uint64_t id : ids) {
    store.Emplace(id, 0);
    store.MarkAlive(id);
  }
  EXPECT_EQ(store.live_ids(),
            (std::vector<uint64_t>{10, 20, 30, 50, 70, 80, 90}));

  store.MarkDead(50);
  store.MarkDead(10);
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{20, 30, 70, 80, 90}));

  store.MarkAlive(10);  // rejoin
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{10, 20, 30, 70, 80, 90}));
  // Parallel slot array stays consistent with the id array.
  for (size_t i = 0; i < store.live_ids().size(); ++i) {
    EXPECT_EQ(&store.at_slot(store.live_slot(i)),
              store.Get(store.live_ids()[i]));
  }
}

TEST(NodeStore, BinarySearchesMatchSortedSemantics) {
  NodeStore<TestNode> store;
  for (uint64_t id : {10, 20, 30}) {
    store.Emplace(id, 0);
    store.MarkAlive(id);
  }
  EXPECT_EQ(store.LowerBoundLive(20), 1u);
  EXPECT_EQ(store.UpperBoundLive(20), 2u);
  EXPECT_EQ(store.LowerBoundLive(15), 1u);
  EXPECT_EQ(store.UpperBoundLive(35), 3u);

  EXPECT_EQ(store.FirstLiveAtOrAfter(20), 20u);
  EXPECT_EQ(store.FirstLiveAtOrAfter(21), 30u);
  EXPECT_EQ(store.FirstLiveAtOrAfter(31), 10u);  // wraps
}

TEST(NodeStore, BulkMarkAliveMatchesIncrementalMarkAlive) {
  // The merge-based bulk path must leave the live arrays exactly as the
  // one-at-a-time sorted insertions would.
  const std::vector<uint64_t> first = {90, 10, 50};
  const std::vector<uint64_t> second = {70, 30, 50, 20};  // 50 already live

  NodeStore<TestNode> bulk;
  NodeStore<TestNode> incremental;
  for (uint64_t id : first) {
    bulk.Emplace(id, 0);
    incremental.Emplace(id, 0);
    incremental.MarkAlive(id);
  }
  bulk.BulkMarkAlive(first);
  EXPECT_EQ(bulk.live_ids(), incremental.live_ids());

  for (uint64_t id : second) {
    bulk.Emplace(id, 0);
    incremental.Emplace(id, 0);
    incremental.MarkAlive(id);
  }
  bulk.BulkMarkAlive(second);
  EXPECT_EQ(bulk.live_ids(), incremental.live_ids());
  for (size_t i = 0; i < bulk.live_ids().size(); ++i) {
    EXPECT_EQ(&bulk.at_slot(bulk.live_slot(i)),
              bulk.Get(bulk.live_ids()[i]));
  }
}

TEST(NodeStore, ReserveDoesNotDisturbContents) {
  NodeStore<TestNode> store;
  store.Emplace(3, 30);
  store.MarkAlive(3);
  TestNode* before = store.Get(3);
  store.Reserve(5000);
  EXPECT_EQ(store.Get(3), before);
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{3}));
  for (uint64_t id = 0; id < 100; ++id) store.Emplace(1000 + id, 0);
  EXPECT_EQ(store.size(), 101u);
}

TEST(NodeStore, MemoryUsageAccountsSlabsIndexAndArena) {
  NodeStore<TestNode> store;
  StoreMemoryStats empty = store.MemoryUsage();
  EXPECT_EQ(empty.node_bytes, 0u);
  EXPECT_EQ(empty.bytes_per_node, 0.0);

  for (uint64_t id = 0; id < 10; ++id) {
    auto [node, inserted] = store.Emplace(id, 0);
    (void)node;
    store.MarkAlive(id);
  }
  FlatList list;
  store.tables().Assign(list, {1, 2, 3, 4, 5});
  StoreMemoryStats s = store.MemoryUsage();
  EXPECT_EQ(s.node_bytes,
            NodeStore<TestNode>::kSlabNodes * sizeof(TestNode));
  EXPECT_GT(s.index_bytes, 0u);
  EXPECT_EQ(s.table_bytes, store.tables().used_bytes());
  EXPECT_EQ(s.arena_bytes, store.tables().allocated_bytes());
  const double total = static_cast<double>(s.node_bytes + s.index_bytes +
                                           s.arena_bytes);
  EXPECT_DOUBLE_EQ(s.bytes_per_node, total / 10.0);
}

TEST(NodeStore, PointersStayValidAcrossGrowth) {
  NodeStore<TestNode> store;
  store.Emplace(0, 0);
  TestNode* first = store.Get(0);
  // Force many appends; a vector-backed store would reallocate and
  // invalidate `first`, the deque must not.
  for (uint64_t id = 1; id < 10000; ++id) {
    store.Emplace(id, static_cast<int>(id));
  }
  EXPECT_EQ(store.Get(0), first);
  EXPECT_EQ(first->tag, 0);
}


using Store = NodeStore<TestNode>;

/// Emplaces `ids` in order (tag = insertion index) and checks that every
/// one resolves to its own slot, and that the index stays a power of two
/// at load <= 1/2.
void ExpectIndexesExactly(Store& store, const std::vector<uint64_t>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    auto [node, inserted] = store.Emplace(ids[i], static_cast<int>(i));
    ASSERT_TRUE(inserted) << "id " << ids[i];
    EXPECT_EQ(node->tag, static_cast<int>(i));
  }
  ASSERT_EQ(store.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(store.SlotOf(ids[i]), static_cast<uint32_t>(i))
        << "id " << ids[i];
    ASSERT_EQ(store.Get(ids[i])->tag, static_cast<int>(i));
  }
  const size_t cap = store.index_capacity();
  EXPECT_EQ(cap & (cap - 1), 0u) << cap;
  EXPECT_GE(cap, 2 * ids.size());
}

TEST(NodeStoreIndex, AdversarialIdSetsResolveExactly) {
  std::vector<std::vector<uint64_t>> sets(4);
  for (uint64_t i = 0; i < 4096; ++i) {
    sets[0].push_back(i);                                  // sequential
    sets[1].push_back((i << 32) | 0x9E3779B9u);            // same low 32 bits
    sets[2].push_back(0xFEDCBA9800000000ull | (i << 3));   // same high bits
  }
  sets[3] = {0, ~uint64_t{0}, 1, ~uint64_t{0} - 1};        // the extremes
  for (const std::vector<uint64_t>& ids : sets) {
    Store store;
    ExpectIndexesExactly(store, ids);
    // Neighbours of the set are absent.
    EXPECT_EQ(store.SlotOf(ids.back() + 7), Store::kNoSlot);
    EXPECT_EQ(store.SlotOf(ids[0] ^ (uint64_t{1} << 63)), Store::kNoSlot);
  }
}

TEST(NodeStoreIndex, GrowsWithoutReserveAndPastAnUndersizedOne) {
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 3000; ++i) ids.push_back(i * 0x10001 + 5);
  Store unreserved;
  ExpectIndexesExactly(unreserved, ids);
  Store undersized;
  undersized.Reserve(10);
  ExpectIndexesExactly(undersized, ids);
  EXPECT_EQ(unreserved.index_capacity(), undersized.index_capacity());
}

TEST(NodeStoreIndex, NeverAddedIdsHaveNoSlot) {
  Store store;
  for (uint64_t id : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    EXPECT_EQ(store.SlotOf(id), Store::kNoSlot);
    EXPECT_EQ(store.Get(id), nullptr);
    EXPECT_FALSE(store.IsAlive(id));
  }
  for (uint64_t id = 100; id < 200; id += 2) store.Emplace(id, 0);
  for (uint64_t id = 101; id < 200; id += 2) {
    EXPECT_EQ(store.SlotOf(id), Store::kNoSlot) << id;
  }
  // The empty-entry marker is the slot, not the id: id 0 stays absent.
  EXPECT_EQ(store.SlotOf(0), Store::kNoSlot);
  EXPECT_EQ(store.SlotOf(~uint64_t{0}), Store::kNoSlot);
}

TEST(NodeStoreIndex, MovesKeepEveryLookup) {
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 2000; ++i) ids.push_back(i * 7919 + (i << 40));
  Store source;
  ExpectIndexesExactly(source, ids);
  source.BulkMarkAlive(ids);

  Store moved(std::move(source));
  Store assigned;
  assigned.Emplace(12345, 0);  // replaced by the assignment
  assigned = std::move(moved);
  EXPECT_EQ(assigned.SlotOf(12345), Store::kNoSlot);
  ASSERT_EQ(assigned.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(assigned.SlotOf(ids[i]), static_cast<uint32_t>(i));
    EXPECT_TRUE(assigned.IsAlive(ids[i]));
  }
}

TEST(NodeStoreIndex, IndexBytesIsTheExactFootprint) {
  // Reserve(100) sizes every array to exactly 100 elements and the index to
  // the smallest power of two holding 100 ids at load <= 1/2.
  Store store;
  store.Reserve(100);
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 100; ++i) ids.push_back(i * 31);
  for (uint64_t id : ids) store.Emplace(id, 0);
  store.BulkMarkAlive(ids);
  EXPECT_EQ(store.index_capacity(), 256u);
  const size_t expected = 100 * sizeof(uint8_t) +    // liveness flags
                          100 * sizeof(uint64_t) +   // sorted live ids
                          100 * sizeof(uint32_t) +   // their slots
                          256 * sizeof(Store::IndexEntry);
  EXPECT_EQ(store.MemoryUsage().index_bytes, expected);
  EXPECT_EQ(sizeof(Store::IndexEntry), 16u);
}

}  // namespace
}  // namespace peercache::overlay
