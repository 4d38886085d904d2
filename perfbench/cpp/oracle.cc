#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench::oracle {

namespace {

int BitLen(uint64_t x) { return x == 0 ? 0 : 64 - __builtin_clzll(x); }

}  // namespace

Ring::Ring(std::vector<uint64_t> live, int bits)
    : ids_(std::move(live)),
      bits_(bits),
      mask_(bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1) {
  std::sort(ids_.begin(), ids_.end());
}

uint64_t Ring::Owner(Geometry g, uint64_t key) const {
  switch (g) {
    case Geometry::kChord:
      return ChordOwner(key);
    case Geometry::kPastry:
      return PastryOwner(key);
    case Geometry::kKademlia:
      return KademliaOwner(key);
  }
  return 0;
}

uint64_t Ring::ChordOwner(uint64_t key) const {
  auto it = std::upper_bound(ids_.begin(), ids_.end(), key);
  return it == ids_.begin() ? ids_.back() : *(it - 1);
}

uint64_t Ring::PastryOwner(uint64_t key) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  const uint64_t above = it == ids_.end() ? ids_.front() : *it;
  const uint64_t below = it == ids_.begin() ? ids_.back() : *(it - 1);
  const uint64_t up = (above - key) & mask_;
  const uint64_t down = (key - below) & mask_;
  if (up != down) return up < down ? above : below;
  return std::min(above, below);
}

uint64_t Ring::KademliaOwner(uint64_t key) const {
  // Walk the implicit binary trie of the sorted ids from the top bit: the
  // XOR-closest id agrees with the key on every bit where some remaining
  // candidate does.
  size_t lo = 0, hi = ids_.size();
  for (int bit = bits_ - 1; bit >= 0 && hi - lo > 1; --bit) {
    const auto first_set = std::partition_point(
        ids_.begin() + static_cast<std::ptrdiff_t>(lo),
        ids_.begin() + static_cast<std::ptrdiff_t>(hi),
        [bit](uint64_t id) { return ((id >> bit) & 1) == 0; });
    const size_t mid = static_cast<size_t>(first_set - ids_.begin());
    // Keep the half that matches the key's bit when it is non-empty.
    const bool want_set = ((key >> bit) & 1) != 0;
    if (want_set && mid < hi) {
      lo = mid;
    } else if (!want_set && mid > lo) {
      hi = mid;
    }
  }
  return ids_[lo];
}

int Distance(Geometry g, int bits, uint64_t w, uint64_t v) {
  const uint64_t mask = bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  if (g == Geometry::kChord) return BitLen((v - w) & mask);
  // Pastry's b - lcp(w, v) and Kademlia's bitlen(w XOR v) coincide on
  // b-bit ids.
  return BitLen((w ^ v) & mask);
}

double Eq1Cost(Geometry g, int bits, const std::vector<uint64_t>& core,
               const std::vector<uint64_t>& aux,
               const std::vector<Peer>& peers) {
  double cost = 0.0;
  for (const Peer& p : peers) {
    int d = bits;
    for (uint64_t w : core) d = std::min(d, Distance(g, bits, w, p.id));
    for (uint64_t w : aux) d = std::min(d, Distance(g, bits, w, p.id));
    cost += p.frequency * (1.0 + d);
  }
  return cost;
}

double BestSingleSwapCost(Geometry g, int bits, uint64_t self,
                          const std::vector<uint64_t>& core,
                          const std::vector<uint64_t>& aux,
                          const std::vector<Peer>& peers) {
  const size_t nv = peers.size();
  const size_t na = aux.size();
  // d_core[v]: best estimate through core neighbours alone.
  std::vector<int> d_core(nv, bits);
  for (size_t v = 0; v < nv; ++v) {
    for (uint64_t w : core) {
      d_core[v] = std::min(d_core[v], Distance(g, bits, w, peers[v].id));
    }
  }
  // without[a][v]: best estimate when chosen entry a is removed.
  std::vector<std::vector<int>> without(na, d_core);
  for (size_t a = 0; a < na; ++a) {
    for (size_t b = 0; b < na; ++b) {
      if (a == b) continue;
      for (size_t v = 0; v < nv; ++v) {
        without[a][v] =
            std::min(without[a][v], Distance(g, bits, aux[b], peers[v].id));
      }
    }
  }
  double best = Eq1Cost(g, bits, core, aux, peers);
  std::vector<int> d_cand(nv);
  for (const Peer& c : peers) {
    if (c.id == self ||
        std::find(core.begin(), core.end(), c.id) != core.end() ||
        std::find(aux.begin(), aux.end(), c.id) != aux.end()) {
      continue;
    }
    for (size_t v = 0; v < nv; ++v) {
      d_cand[v] = Distance(g, bits, c.id, peers[v].id);
    }
    for (size_t a = 0; a < na; ++a) {
      double cost = 0.0;
      for (size_t v = 0; v < nv; ++v) {
        cost += peers[v].frequency *
                (1.0 + std::min(without[a][v], d_cand[v]));
      }
      best = std::min(best, cost);
    }
  }
  return best;
}

uint32_t Crc32Bitwise(const uint8_t* data, size_t size, uint32_t seed,
                      uint32_t poly) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ poly : crc >> 1;
    }
  }
  return ~crc;
}

namespace {

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

bool FrameChecksumOk(const uint8_t* frame, size_t size, uint32_t poly) {
  constexpr size_t kHeader = 16;
  if (size < kHeader) return false;
  const uint32_t seed = Crc32Bitwise(frame + 4, 8, 0, poly);
  return LoadLe32(frame + 12) ==
         Crc32Bitwise(frame + kHeader, size - kHeader, seed, poly);
}

bool RecordChecksumOk(const uint8_t* record, size_t size, uint64_t salt,
                      uint32_t poly) {
  if (size < 4) return false;
  uint8_t salt_bytes[8];
  for (int i = 0; i < 8; ++i) {
    salt_bytes[i] = static_cast<uint8_t>(salt >> (8 * i));
  }
  const uint32_t seed = Crc32Bitwise(salt_bytes, 8, 0, poly);
  return LoadLe32(record + size - 4) ==
         Crc32Bitwise(record, size - 4, seed, poly);
}

bool LatencyBounds::Contains(double ms) const {
  const double slack = 1e-9 * (1.0 + std::abs(hi));
  return ms >= lo - slack && ms <= hi + slack;
}

LatencyBounds LookupLatencyBounds(double base_rtt_ms, double coord_scale_ms,
                                  double jitter_ms, double timeout_ms,
                                  int hops, int retries) {
  const double per_hop_max =
      base_rtt_ms + coord_scale_ms * std::sqrt(2.0) + jitter_ms;
  LatencyBounds b;
  b.lo = hops * base_rtt_ms + retries * timeout_ms;
  b.hi = hops * per_hop_max + retries * timeout_ms;
  return b;
}

}  // namespace perfbench::oracle
