#include "common/fork_join.h"

#include "common/check.h"

namespace eucon {
namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Waits until `word` no longer holds `old`: spins through kSpinLimit pauses,
// then sleeps on the word. Returns the new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old) {
  for (std::uint32_t i = 0; i < ForkJoinTeam::kSpinLimit; ++i) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
    cpu_relax();
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

ForkJoinTeam::ForkJoinTeam(std::size_t size) : size_(size) {
  EUCON_REQUIRE(size >= 1 && size <= kMaxSize,
                "fork-join team size must be in [1, 256]");
  slots_ = std::make_unique<Slot[]>(size);
  workers_.reserve(size - 1);
  for (std::size_t w = 1; w < size; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ForkJoinTeam::~ForkJoinTeam() {
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();  // eucon-lint: allow(detached-thread)
}

void ForkJoinTeam::dispatch(Fn fn, void* ctx) {
  if (size_ == 1) {
    fn(ctx, 0);
    return;
  }
  // Every index of the previous job was claimed and has finished, so no
  // participant touches fn_, ctx_ or done_ until a slot reopens.
  fn_ = fn;
  ctx_ = ctx;
  done_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < size_; ++i)
    slots_[i].open.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  run_open(0);
  wait_for_indices();
  for (std::size_t i = 0; i < size_; ++i) {
    if (!slots_[i].error) continue;
    std::exception_ptr first = slots_[i].error;
    for (std::size_t k = i; k < size_; ++k) slots_[k].error = nullptr;
    std::rethrow_exception(first);
  }
}

void ForkJoinTeam::run_open(std::size_t first) {
  for (std::size_t k = 0; k < size_; ++k) {
    const std::size_t i = (first + k) % size_;
    Slot& slot = slots_[i];
    // Plain load first: a claimed slot costs no exclusive cache-line grab.
    if (!slot.open.load(std::memory_order_relaxed) ||
        !slot.open.exchange(false, std::memory_order_acquire))
      continue;
    try {
      fn_(ctx_, i);
    } catch (...) {
      slot.error = std::current_exception();
    }
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_)
      done_.notify_one();
  }
}

void ForkJoinTeam::wait_for_indices() {
  const auto all = static_cast<std::uint32_t>(size_);
  for (std::uint32_t done = done_.load(std::memory_order_acquire);
       done != all;)
    done = await_change(done_, done);
}

void ForkJoinTeam::worker_loop(std::size_t w) {
  // The generation starts at 0 and only dispatch() moves it, so a worker
  // that starts late still sees the first job as a change. A worker that
  // wakes after its job was finished by others finds no open slot.
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (stopping_.load(std::memory_order_relaxed)) return;
    run_open(w);
  }
}

}  // namespace eucon
