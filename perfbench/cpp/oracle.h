// Independent oracles for the benchmark's correctness checks. Nothing here
// includes or calls the library: each answer is re-derived from first
// principles (a sorted copy of the live ids, the Eq. 1 distance conventions
// of DESIGN.md section 2, a bit-at-a-time CRC, the latency model's
// configuration), so a fault in the library cannot also hide in its check.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench::oracle {

enum class Geometry { kChord, kPastry, kKademlia };

/// Ground truth over a sorted copy of the live ids of a `bits`-bit space.
class Ring {
 public:
  Ring(std::vector<uint64_t> live, int bits);

  /// The node responsible for `key`:
  ///  * Chord: the live predecessor (the last id at or before the key,
  ///    wrapping) -- the paper's Chord variant, which the library follows;
  ///  * Pastry: the numerically closest id on the ring, ties to the
  ///    smaller id;
  ///  * Kademlia: the id with the smallest XOR distance to the key.
  uint64_t Owner(Geometry g, uint64_t key) const;

  const std::vector<uint64_t>& ids() const { return ids_; }

 private:
  uint64_t ChordOwner(uint64_t key) const;
  uint64_t PastryOwner(uint64_t key) const;
  uint64_t KademliaOwner(uint64_t key) const;

  std::vector<uint64_t> ids_;
  int bits_;
  uint64_t mask_;
};

/// Hop-distance estimate d(w, v) of DESIGN.md section 2: Chord
/// bitlen((v - w) mod 2^b); Pastry b - lcp(w, v); Kademlia bitlen(w XOR v).
int Distance(Geometry g, int bits, uint64_t w, uint64_t v);

/// One observed peer with its access frequency.
struct Peer {
  uint64_t id = 0;
  double frequency = 0.0;
};

/// Paper Eq. 1: sum over peers of f_v * (1 + min(b, min_{w in core+aux}
/// d(w, v))).
double Eq1Cost(Geometry g, int bits, const std::vector<uint64_t>& core,
               const std::vector<uint64_t>& aux,
               const std::vector<Peer>& peers);

/// Lowest Eq. 1 cost reachable from `aux` by swapping one chosen entry for
/// one observed peer that is neither self, a core neighbour nor already
/// chosen. Returns the current cost when no swap exists.
double BestSingleSwapCost(Geometry g, int bits, uint64_t self,
                          const std::vector<uint64_t>& core,
                          const std::vector<uint64_t>& aux,
                          const std::vector<Peer>& peers);

/// Reflected CRC-32, one bit at a time. `seed` chains like the library's
/// documented checksum: Crc(b, Crc(a)) == Crc(a ++ b).
uint32_t Crc32Bitwise(const uint8_t* data, size_t size, uint32_t seed,
                      uint32_t poly);
inline constexpr uint32_t kPolyIeee = 0xEDB88320u;        // CRC-32
inline constexpr uint32_t kPolyCastagnoli = 0x82F63B78u;  // CRC-32C

/// Checks a wire frame's stored checksum (header bytes 12..16) against
/// CRC(payload) seeded with CRC(header bytes 4..12), the layout of
/// docs/RUNTIME.md. False for frames shorter than the header.
bool FrameChecksumOk(const uint8_t* frame, size_t size, uint32_t poly);

/// Checks a peer-cache record's trailing checksum: CRC of every byte but
/// the last four, seeded with CRC of the file salt's little-endian bytes.
bool RecordChecksumOk(const uint8_t* record, size_t size, uint64_t salt,
                      uint32_t poly);

/// Range a lookup's simulated latency must fall in, from the latency
/// model's configuration: each delivered hop costs base RTT plus at most
/// the unit square's diagonal times the coordinate scale plus the jitter
/// bound; each failed attempt costs exactly the timeout.
struct LatencyBounds {
  double lo = 0.0;
  double hi = 0.0;
  bool Contains(double ms) const;
};
LatencyBounds LookupLatencyBounds(double base_rtt_ms, double coord_scale_ms,
                                  double jitter_ms, double timeout_ms,
                                  int hops, int retries);

}  // namespace perfbench::oracle

#endif  // PERFBENCH_ORACLE_H_
