// Solution representation of the Energy Planner.
//
// "An energy plan solution is a vector s = <s_1, ..., s_N> of size
// N = |MRT|. A vector component s_i represents a meta-rule in table MRT,
// where s_i = 0 means ignoring meta-rule at position i and s_i = 1 means
// adopting meta-rule at position i."

#ifndef IMCF_CORE_SOLUTION_H_
#define IMCF_CORE_SOLUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace imcf {
namespace core {

/// Initialization strategies evaluated in the paper (Fig. 8).
enum class InitStrategy {
  kAllOnes,   ///< adopt every rule (greedy convenience start)
  kRandom,    ///< uniform random bits
  kAllZeros,  ///< ignore every rule (greedy energy start)
};

const char* InitStrategyName(InitStrategy strategy);

/// A binary adoption vector over the MRT's convenience rules.
class Solution {
 public:
  Solution() = default;
  explicit Solution(size_t n, uint8_t fill = 0) : bits_(n, fill) {}

  /// Builds an initial solution per the chosen strategy (Alg. 1 line 8).
  static Solution Init(size_t n, InitStrategy strategy, Rng* rng);

  size_t size() const { return bits_.size(); }
  bool adopted(size_t i) const { return bits_[i] != 0; }
  /// Raw 0/1 bytes, one per component (bulk sync in the slot evaluator).
  const uint8_t* data() const { return bits_.data(); }
  void set(size_t i, bool value) { bits_[i] = value ? 1 : 0; }
  void flip(size_t i) { bits_[i] ^= 1; }

  /// Number of adopted rules.
  size_t CountAdopted() const;

  /// "101001..." rendering for logs and tests.
  std::string ToString() const;

  friend bool operator==(const Solution&, const Solution&) = default;

 private:
  std::vector<uint8_t> bits_;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_SOLUTION_H_
