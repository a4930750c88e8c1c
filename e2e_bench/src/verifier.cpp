#include "verifier.hpp"

namespace e2e {

using namespace pts;

void Verifier::note_locked(const std::string& text) {
  if (messages_.size() < 20) messages_.push_back(text);
}

bool Verifier::record(const Job& job, const Status& status,
                      const std::optional<mkp::Solution>& best, double best_value,
                      std::uint64_t moves) {
  std::string wrong;
  if (status.ok()) {
    if (!best) {
      wrong = "OK status without a solution";
    } else {
      wrong = check_answer(*job.rows, answer_of(*best, best_value));
      if (wrong.empty() && best_value > job.lp_bound + 1e-6) {
        wrong = "value " + std::to_string(best_value) + " exceeds the LP bound " +
                std::to_string(job.lp_bound);
      }
    }
  }
  std::lock_guard lock(mutex_);
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
    note_locked("job " + job.key + " failed: " + status.to_string());
    return false;
  }
  if (!wrong.empty()) {
    correct_ = false;
    ++failed_;
    note_locked("WRONG: job " + job.key + ": " + wrong);
    return false;
  }
  const auto [seen, fresh] = first_seen_.try_emplace(job.key, best_value, moves);
  if (!fresh && (seen->second.first != best_value || seen->second.second != moves)) {
    correct_ = false;
    note_locked("WRONG: job " + job.key + " repeated with best " + std::to_string(best_value) +
                " / " + std::to_string(moves) + " moves, first run gave " +
                std::to_string(seen->second.first) + " / " +
                std::to_string(seen->second.second));
  }
  if (job.target && best_value < *job.target) {
    ++failed_;
    note_locked("job " + job.key + " missed its target " + std::to_string(*job.target) +
                " (best " + std::to_string(best_value) + ")");
    return false;
  }
  return true;
}

void Verifier::count_missing(const std::string& why) {
  std::lock_guard lock(mutex_);
  ++attempted_;
  ++failed_;
  note_locked("job missing its result: " + why);
}

void Verifier::wrong(const std::string& why) {
  std::lock_guard lock(mutex_);
  correct_ = false;
  note_locked("WRONG: " + why);
}

std::uint64_t Verifier::attempted() const {
  std::lock_guard lock(mutex_);
  return attempted_;
}
std::uint64_t Verifier::failed() const {
  std::lock_guard lock(mutex_);
  return failed_;
}
bool Verifier::correct() const {
  std::lock_guard lock(mutex_);
  return correct_;
}
std::vector<std::string> Verifier::messages() const {
  std::lock_guard lock(mutex_);
  return messages_;
}

}  // namespace e2e
