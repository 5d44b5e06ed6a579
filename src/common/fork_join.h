// Fixed team of persistent threads for fine-grained fork-join loops.
//
// ThreadPool (common/thread_pool.h) is built for coarse work: every submit()
// allocates a packaged task, a shared state and a std::function, which is
// fine for whole experiment runs and fatal for a loop forked several times
// per sampling period on an allocation-free hot path. ForkJoinTeam is the
// other end of that trade. A team of `size` has the calling thread plus
// size - 1 workers started once at construction; fork_join(body) runs
// body(i) exactly once for every index i in [0, size) and returns when all
// of them are done. A call allocates nothing: the body travels as a
// function pointer plus a context pointer, and a new job is announced by
// bumping a generation counter.
//
// Index i is "owned" by participant i (the caller owns 0): each participant
// claims its own index first, so when the machine is quiet index i runs on
// the same thread every time and keeps that thread's cache warm. A
// participant that finishes then claims any index still unclaimed, so a
// worker that is asleep or descheduled when a job starts does not hold the
// job up: the caller (or another worker) runs its index instead. Only an
// index that is already running is waited for. Bodies must therefore not
// care which thread runs them — state kept per index (a scratch workspace)
// is never used by two threads at once — and must not wait for each other:
// every index may run, one after another, on the caller.
//
// Waiting is spin-then-block. A worker polls the generation counter for a
// bounded number of pause instructions (kSpinLimit), then sleeps on it
// (std::atomic::wait, a futex on Linux); the caller waits for the last
// running index the same way. Back-to-back forks — the colors of one
// sharded sweep, or consecutive sampling periods — therefore cost a few
// cache-line transfers, while an idle team costs no CPU once the spin
// budget runs out.
//
// Exceptions: a body that throws is caught on the thread that ran it and
// rethrown from fork_join() on the caller after the join; when several
// bodies throw, the one with the lowest index wins, so the error a caller
// sees does not depend on thread timing. No exception ever escapes a
// worker thread (which would call std::terminate).
//
// One caller at a time: fork_join() is not reentrant and must not be
// called concurrently from two threads on the same team.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace eucon {

class ForkJoinTeam {
 public:
  // Upper bound on `size`, so a misconfigured count fails validation
  // instead of starting thousands of threads.
  static constexpr std::size_t kMaxSize = 256;
  // Pause instructions a waiting thread spins through before it blocks:
  // about 0.6 ms at the 17.5 ns pause of a 4-vCPU Xeon VM (longer on cores
  // with a slower pause). That outlasts the gap between two periods of the
  // 10k-processor sweep (plant step plus bookkeeping), so a team driven
  // every period never sleeps, while an idle team stops burning CPU within
  // a millisecond. docs/performance.md has the measurements.
  static constexpr std::uint32_t kSpinLimit = 1U << 15;

  // `size` indices (1 <= size <= kMaxSize): the caller plus size - 1
  // worker threads. size == 1 starts no thread; fork_join() is then a
  // plain call of body(0).
  explicit ForkJoinTeam(std::size_t size);
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  std::size_t size() const { return size_; }

  // Runs body(i) once for every i in [0, size()), each on some participant
  // (see the file comment), and returns when every call has finished.
  // `body` must stay valid for the whole call.
  template <typename F>
  void fork_join(F& body) {
    dispatch(&invoke<F>, &body);
  }

 private:
  using Fn = void (*)(void* ctx, std::size_t i);

  template <typename F>
  static void invoke(void* ctx, std::size_t i) {
    (*static_cast<F*>(ctx))(i);
  }

  // Per index: open while no participant has claimed it in the current
  // job, and the exception its body threw. One cache line each, so claims
  // on different indices do not contend.
  struct alignas(64) Slot {
    std::atomic<bool> open{false};
    std::exception_ptr error;
  };

  void dispatch(Fn fn, void* ctx);
  // Claims and runs every open index, starting at `first`.
  void run_open(std::size_t first);
  // Blocks until every index of the current job has finished.
  void wait_for_indices()
      EUCON_BLOCK_OK("the fork-join join: bounded spin, then a futex wait "
                     "for indices already running on other threads");
  void worker_loop(std::size_t w);

  const std::size_t size_;
  // The current job. Written by the caller before it opens the slots
  // (release); read by a participant after it claims one (acquire).
  Fn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::unique_ptr<Slot[]> slots_;

  std::atomic<std::uint32_t> generation_{0};  // bumped once per job
  std::atomic<std::uint32_t> done_{0};        // indices finished this job
  std::atomic<bool> stopping_{false};
  // Joined in the destructor. ThreadPool cannot stand in: its submit()
  // allocates on every call.
  std::vector<std::thread> workers_;  // eucon-lint: allow(detached-thread)
};

}  // namespace eucon
