#include "common/fault.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/random.h"

namespace peercache::fault {

namespace {

/// Domain-separation salts: the three predicates must draw from unrelated
/// streams even for identical (key, node) tuples.
constexpr uint64_t kDropSalt = 0x64726f70'666f7277ULL;
constexpr uint64_t kFailSalt = 0x6661696c'73746f70ULL;
constexpr uint64_t kStaleSalt = 0x7374616c'65656e74ULL;

/// Chains the SplitMix64 finalizer over a tuple of words. Each word is
/// mixed before xor so structured inputs (small ids sharing low bits) land
/// in unrelated points of the hash space — the same construction SplitSeed
/// uses for per-node RNG streams.
uint64_t MixChain(uint64_t h, uint64_t word) {
  return MixHash64(h ^ MixHash64(word));
}

/// Uniform double in [0, 1) from a hash value (the Rng::UniformDouble
/// mapping, applied to a stateless hash instead of a generator draw).
double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Status FaultConfig::Validate() const {
  const std::pair<const char*, double> probs[] = {
      {"drop_prob", drop_prob},
      {"fail_prob", fail_prob},
      {"stale_prob", stale_prob}};
  for (const auto& [name, p] : probs) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be a probability in [0, 1]");
    }
  }
  if (max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  return Status::Ok();
}

bool IsFaultFlag(std::string_view flag) {
  return flag == "--fault-drop" || flag == "--fault-fail" ||
         flag == "--fault-stale" || flag == "--fault-seed" ||
         flag == "--fault-retries";
}

Status ApplyFaultFlag(std::string_view flag, const char* value,
                      FaultConfig& config) {
  auto bad = [&](const std::string& why) {
    return Status::InvalidArgument(std::string(flag) + " " + value + ": " +
                                   why);
  };
  if (!IsFaultFlag(flag)) return bad("not a fault flag");
  FaultConfig next = config;
  char* end = nullptr;
  errno = 0;
  if (flag == "--fault-seed") {
    // strtoull would wrap a negative seed around silently.
    if (!std::isdigit(static_cast<unsigned char>(*value))) {
      return bad("not an unsigned integer");
    }
    next.seed = std::strtoull(value, &end, 10);
  } else if (flag == "--fault-retries") {
    const long n = std::strtol(value, &end, 10);
    if (n < INT_MIN || n > INT_MAX) errno = ERANGE;
    next.max_retries = static_cast<int>(n);
  } else {
    double& p = flag == "--fault-drop"   ? next.drop_prob
                : flag == "--fault-fail" ? next.fail_prob
                                         : next.stale_prob;
    p = std::strtod(value, &end);
  }
  if (end == value || *end != '\0') return bad("not a number");
  if (errno == ERANGE) return bad("out of range");
  if (Status s = next.Validate(); !s.ok()) return bad(s.message());
  config = next;
  return Status::Ok();
}

bool FaultPlan::DropForward(uint64_t key, uint64_t from, uint64_t to,
                            int attempt) const {
  if (config_.drop_prob <= 0.0) return false;
  uint64_t h = MixChain(config_.seed, kDropSalt);
  h = MixChain(h, key);
  h = MixChain(h, from);
  h = MixChain(h, to);
  h = MixChain(h, static_cast<uint64_t>(attempt));
  return UnitFromHash(h) < config_.drop_prob;
}

bool FaultPlan::FailStopped(uint64_t key, uint64_t node) const {
  if (config_.fail_prob <= 0.0) return false;
  uint64_t h = MixChain(config_.seed, kFailSalt);
  h = MixChain(h, key);
  h = MixChain(h, node);
  return UnitFromHash(h) < config_.fail_prob;
}

bool FaultPlan::StaleBelievedAlive(uint64_t key, uint64_t holder,
                                   uint64_t entry) const {
  if (config_.stale_prob <= 0.0) return false;
  uint64_t h = MixChain(config_.seed, kStaleSalt);
  h = MixChain(h, key);
  h = MixChain(h, holder);
  h = MixChain(h, entry);
  return UnitFromHash(h) < config_.stale_prob;
}

}  // namespace peercache::fault
