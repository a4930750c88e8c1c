#include "tabu/history.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mkp/instance.hpp"

namespace pts::tabu {
namespace {

mkp::Instance make_inst() {
  return mkp::Instance("h", {1, 1, 1}, {1, 1, 1}, {3});
}

TEST(FrequencyMemory, StartsEmpty) {
  FrequencyMemory memory(3);
  EXPECT_EQ(memory.total_iterations(), 0U);
  EXPECT_DOUBLE_EQ(memory.frequency(0), 0.0);
  EXPECT_EQ(memory.num_items(), 3U);
}

TEST(FrequencyMemory, CountsSelectedItems) {
  const auto inst = make_inst();
  FrequencyMemory memory(3);
  mkp::Solution s(inst);
  s.add(0);
  memory.record(s);   // {0}
  s.add(1);
  memory.record(s);   // {0,1}
  EXPECT_EQ(memory.total_iterations(), 2U);
  EXPECT_EQ(memory.count(0), 2U);
  EXPECT_EQ(memory.count(1), 1U);
  EXPECT_EQ(memory.count(2), 0U);
  EXPECT_DOUBLE_EQ(memory.frequency(0), 1.0);
  EXPECT_DOUBLE_EQ(memory.frequency(1), 0.5);
  EXPECT_DOUBLE_EQ(memory.frequency(2), 0.0);
}

TEST(FrequencyMemory, ResetClears) {
  const auto inst = make_inst();
  FrequencyMemory memory(3);
  mkp::Solution s(inst);
  s.add(2);
  memory.record(s);
  memory.reset();
  EXPECT_EQ(memory.total_iterations(), 0U);
  EXPECT_EQ(memory.count(2), 0U);
}

TEST(FrequencyMemory, FrequencyAlwaysWithinUnitInterval) {
  const auto inst = make_inst();
  FrequencyMemory memory(3);
  mkp::Solution s(inst);
  for (int round = 0; round < 50; ++round) {
    s.flip(round % 3);
    memory.record(s);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_GE(memory.frequency(j), 0.0);
    EXPECT_LE(memory.frequency(j), 1.0);
  }
}

TEST(FrequencyMemory, RecordCountsOnlyItemsAcrossWordBoundaries) {
  // record() walks the selection mask word by word; at sizes around a word
  // boundary every selected item must count once and nothing else.
  for (const std::size_t n : {63U, 64U, 65U, 130U}) {
    const mkp::Instance inst("words", std::vector<double>(n, 1.0),
                             std::vector<double>(n, 1.0), {static_cast<double>(n)});
    FrequencyMemory memory(n);
    mkp::Solution s(inst);
    std::vector<std::uint64_t> want(n, 0);
    const auto record = [&] {
      memory.record(s);
      for (std::size_t j = 0; j < n; ++j) want[j] += s.contains(j) ? 1 : 0;
    };
    record();  // empty
    for (std::size_t j = 0; j < n; ++j) s.add(j);
    record();  // full, so the last word is all ones below n
    for (std::size_t j = 0; j < n; j += 3) s.drop(j);
    record();
    s.drop(n - 1);
    record();
    EXPECT_EQ(memory.total_iterations(), 4U) << "n " << n;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(memory.count(j), want[j]) << "n " << n << " item " << j;
    }
  }
}

}  // namespace
}  // namespace pts::tabu
