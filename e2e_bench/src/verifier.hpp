#pragma once
// The correctness gate every returned solution passes through.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mkp/solution.hpp"
#include "rows.hpp"
#include "util/status.hpp"

namespace e2e {

/// The correctness gate and the failure ledger, shared by every thread of a
/// run.
///
/// A job FAILS (counted, the run goes on) when it returns an error status,
/// misses its target or never returns. A job is WRONG (the run fails) when
/// its solution is infeasible, its value does not match its items or
/// exceeds the LP bound, or when a repeat of the same (instance, seed) gives
/// another best value or move count.
class Verifier {
 public:
  struct Job {
    std::string key;  ///< identity of the (instance, seed) pair
    const Rows* rows = nullptr;
    double lp_bound = 0.0;
    std::optional<double> target;
  };
  /// Returns true when the job counts as completed.
  bool record(const Job& job, const pts::Status& status,
              const std::optional<pts::mkp::Solution>& best,
              double best_value, std::uint64_t moves);
  void count_missing(const std::string& why);
  void wrong(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::vector<std::string> messages() const;

 private:
  void note_locked(const std::string& text);

  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> messages_;
  std::map<std::string, std::pair<double, std::uint64_t>> first_seen_;
};

}  // namespace e2e
