#include "common/fork_join.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"

namespace eucon {
namespace {

TEST(ForkJoinTeamTest, EveryIndexRunsOncePerFork) {
  ForkJoinTeam team(4);
  ASSERT_EQ(team.size(), 4u);
  // Plain (non-atomic) per-index slots: an index runs on one thread per
  // fork, and the join must publish its writes to the caller and to the
  // thread that runs the index next time.
  std::vector<int> runs(team.size(), 0);
  auto body = [&](std::size_t i) { ++runs[i]; };
  for (int k = 0; k < 500; ++k) {
    team.fork_join(body);
    for (std::size_t i = 0; i < team.size(); ++i)
      ASSERT_EQ(runs[i], k + 1) << "index " << i << " fork " << k;
  }
}

TEST(ForkJoinTeamTest, SizeOneRunsOnTheCaller) {
  ForkJoinTeam team(1);
  std::thread::id id;
  int runs = 0;
  auto body = [&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    id = std::this_thread::get_id();
    ++runs;
  };
  team.fork_join(body);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ForkJoinTeamTest, CompletesAfterWorkersFellAsleep) {
  // Idle long enough between forks that every worker exhausts its spin
  // budget and blocks; the next fork must still run every index once
  // (woken workers or the caller take them).
  ForkJoinTeam team(3);
  std::vector<int> runs(team.size(), 0);
  auto body = [&](std::size_t i) { ++runs[i]; };
  for (int k = 0; k < 3; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    team.fork_join(body);
  }
  for (std::size_t i = 0; i < team.size(); ++i) EXPECT_EQ(runs[i], 3);
}

TEST(ForkJoinTeamTest, LowestIndexExceptionIsRethrown) {
  ForkJoinTeam team(4);
  const auto throwing_on = [&team](std::vector<std::size_t> throwers) {
    auto body = [&](std::size_t i) {
      for (std::size_t t : throwers)
        if (t == i) EUCON_FAIL("index " + std::to_string(i));
    };
    try {
      team.fork_join(body);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("none");
  };
  EXPECT_EQ(throwing_on({3, 1}), "index 1");
  EXPECT_EQ(throwing_on({2, 0}), "index 0");
  EXPECT_EQ(throwing_on({3}), "index 3");
  // A failed fork leaves no stale error behind.
  EXPECT_EQ(throwing_on({}), "none");
}

TEST(ForkJoinTeamTest, RejectsBadSizeWithoutStartingThreads) {
  EXPECT_THROW(ForkJoinTeam(0), std::invalid_argument);
  EXPECT_THROW(ForkJoinTeam(ForkJoinTeam::kMaxSize + 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace eucon
