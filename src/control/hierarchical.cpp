#include "control/hierarchical.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "control/topology.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

void HierarchicalParams::validate() const {
  EUCON_REQUIRE(shard_size >= 1, "shard size must be >= 1");
  EUCON_REQUIRE(coordination_gain > 0.0 && coordination_gain <= 1.0,
                "coordination gain must be in (0, 1]");
  EUCON_REQUIRE(workers <= ForkJoinTeam::kMaxSize,
                "sweep workers must be at most 256 (0 = auto)");
}

// Lays out one sweep partition: processor p goes to shard (p + offset) /
// shard_size (offset 0 = the base partition; offset shard_size / 2 = the
// staggered one, whose first shard is half-sized so every base boundary
// falls in a staggered shard's interior), a shard observes every row its
// owned tasks touch, and the shards that own tasks are colored so no two
// of one color share a row.
HierarchicalMpcController::Partition
HierarchicalMpcController::layout_partition(std::size_t offset) const {
  const std::size_t n = model_.num_processors();
  const std::size_t m = model_.num_tasks();
  const std::size_t num_shards =
      (n + offset + hier_.shard_size - 1) / hier_.shard_size;
  Partition part;
  std::vector<Shard>& shards = part.shards;
  shards.resize(num_shards);

  // Tasks go to the shard of their owning processor (the shared
  // largest-entry / lowest-index rule); iterating tasks in order keeps
  // each shard's owned list ascending.
  const OwnershipTopology topo = compute_ownership(model_.f);
  for (std::size_t j = 0; j < m; ++j)
    shards[(topo.owner[j] + offset) / hier_.shard_size].owned.push_back(j);

  // seen[q] marks processor q as already listed for the current shard.
  // A shard whose processors own no tasks has nothing to actuate; it gets
  // no rows, no color and no local controller.
  std::vector<bool> seen(n, false);
  for (Shard& shard : shards) {
    for (std::size_t j : shard.owned)
      for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k) {
        const std::size_t q = ft_.col_index(k);
        if (!seen[q]) {
          shard.rows.push_back(q);
          seen[q] = true;
        }
      }
    std::sort(shard.rows.begin(), shard.rows.end());
    for (std::size_t q : shard.rows) seen[q] = false;
  }

  // Greedy coloring in shard index order. The shards observing row q are
  // observers[first[q] .. first[q + 1]), ascending; shard s takes the
  // smallest color no earlier observer of one of its rows holds
  // (taken[c] == s marks color c as taken for s).
  std::vector<std::size_t> first(n + 1, 0);
  for (const Shard& shard : shards)
    for (std::size_t q : shard.rows) ++first[q + 1];
  for (std::size_t q = 0; q < n; ++q) first[q + 1] += first[q];
  std::vector<std::size_t> observers(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t s = 0; s < num_shards; ++s)
    for (std::size_t q : shards[s].rows) observers[fill[q]++] = s;
  std::vector<std::size_t> taken(num_shards + 1, kNoColor);
  std::size_t num_colors = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shards[s].owned.empty()) continue;
    for (std::size_t q : shards[s].rows)
      for (std::size_t k = first[q]; k < first[q + 1] && observers[k] < s; ++k)
        taken[shards[observers[k]].color] = s;
    std::size_t color = 0;
    while (taken[color] == s) ++color;
    shards[s].color = color;
    num_colors = std::max(num_colors, color + 1);
  }
  for (std::size_t c = 0; c < num_colors; ++c) {
    part.color_begin.push_back(part.order.size());
    for (std::size_t s = 0; s < num_shards; ++s)
      if (shards[s].color == c) part.order.push_back(s);
  }
  part.color_begin.push_back(part.order.size());
  EUCON_ASSERT(!part.order.empty(), "no shard owns a task");
  return part;
}

void HierarchicalMpcController::build_locals(Partition& part,
                                             const MpcParams& params) {
  const std::size_t n = model_.num_processors();
  const std::size_t workers = workspaces_.size();

  // Row totals Σ_j f(q,j): the denominators of the diagnostic shares.
  Vector row_total(n, 0.0);
  for (std::size_t q = 0; q < n; ++q)
    for (std::size_t k = model_.f.row_begin(q); k < model_.f.row_end(q); ++k)
      row_total[q] += model_.f.value(k);

  // Chunk w of a color holds that color's shards [w·len/W, (w+1)·len/W).
  part.chunk_begin.assign(part.num_colors() * workers + 1, part.order.size());
  for (std::size_t c = 0; c < part.num_colors(); ++c) {
    const std::size_t begin = part.color_begin[c];
    const std::size_t len = part.color_begin[c + 1] - begin;
    for (std::size_t w = 0; w < workers; ++w) {
      part.chunk_begin[c * workers + w] = begin + w * len / workers;
      for (std::size_t i = begin + w * len / workers;
           i < begin + (w + 1) * len / workers; ++i)
        part.shards[part.order[i]].worker = w;
    }
  }

  // pos[q] = qi + 1 while processor q sits at shard.rows[qi]; reused (and
  // cleared) across shards.
  std::vector<std::size_t> pos(n, 0);
  for (Shard& shard : part.shards) {
    if (shard.color == kNoColor) continue;
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi)
      pos[shard.rows[qi]] = qi + 1;

    // Local plant: rows = observed processors, columns = owned tasks, both
    // ascending, scattered straight off the CSR columns (absent entries
    // stay zero). The share numerator rides along: share · row_total[q] =
    // Σ_{j owned here} f(q,j).
    PlantModel local;
    local.f = Matrix(shard.rows.size(), shard.owned.size());
    local.b = Vector(shard.rows.size());
    local.rate_min = Vector(shard.owned.size());
    local.rate_max = Vector(shard.owned.size());
    shard.share = Vector(shard.rows.size(), 0.0);
    Vector local_rates(shard.owned.size());
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi)
      local.b[qi] = model_.b[shard.rows[qi]];
    for (std::size_t ji = 0; ji < shard.owned.size(); ++ji) {
      const std::size_t j = shard.owned[ji];
      for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k) {
        const std::size_t qi = pos[ft_.col_index(k)] - 1;
        local.f(qi, ji) = ft_.value(k);
        shard.share[qi] += ft_.value(k);
      }
      local.rate_min[ji] = model_.rate_min[j];
      local.rate_max[ji] = model_.rate_max[j];
      local_rates[ji] = rates_[j];
    }
    for (std::size_t qi = 0; qi < shard.rows.size(); ++qi) {
      const double total = row_total[shard.rows[qi]];
      EUCON_ASSERT(total > 0.0 && shard.share[qi] > 0.0,
                   "observed row with no allocation");
      shard.share[qi] /= total;
    }
    for (std::size_t q : shard.rows) pos[q] = 0;

    shard.u_scratch = Vector(shard.rows.size());
    shard.r_scratch = Vector(shard.owned.size());
    // Every local MPC solves through its chunk index's workspace, reserved
    // growth-only as locals are built: each ends at the largest problem
    // of its chunks across both partitions, independent of the shard
    // count.
    shard.local = std::make_unique<MpcController>(
        std::move(local), params, std::move(local_rates),
        &workspaces_[shard.worker]);
  }
}

HierarchicalMpcController::HierarchicalMpcController(SparsePlantModel model,
                                                     MpcParams params,
                                                     HierarchicalParams hier,
                                                     Vector initial_rates)
    : model_(std::move(model)), hier_(hier), rates_(std::move(initial_rates)) {
  model_.validate();
  hier_.validate();
  const std::size_t n = model_.num_processors();
  EUCON_REQUIRE(rates_.size() == model_.num_tasks(),
                "initial rate vector size mismatch");
  rates_ = rates_.clamped(model_.rate_min, model_.rate_max);

  shard_of_.resize(n);
  for (std::size_t p = 0; p < n; ++p) shard_of_[p] = p / hier_.shard_size;

  // F^T's rows are F's columns — each task's processor list, ascending.
  // Kept as a member: the update sweep feeds each shard's rate moves
  // forward into the prediction through these rows.
  ft_ = model_.f.transposed();
  u_pred_ = Vector(n);

  partitions_.push_back(layout_partition(0));
  // The staggered partition exists to break boundary wedges, so a base
  // partition without internal boundaries (one shard, or one-processor
  // shards where the offset degenerates) doesn't need it — and skipping
  // it keeps the single-shard case bit-identical to the central MPC.
  const std::size_t offset = hier_.shard_size / 2;
  if (partitions_.front().shards.size() > 1 && offset > 0)
    partitions_.push_back(layout_partition(offset));

  // Auto mode: the whole machine, unless the widest color would leave a
  // participant fewer than kMinShardsPerWorker shards.
  std::size_t workers = hier_.workers;
  if (workers == 0) {
    std::size_t widest = 0;
    for (const Partition& part : partitions_)
      for (std::size_t c = 0; c < part.num_colors(); ++c)
        widest = std::max(widest,
                          part.color_begin[c + 1] - part.color_begin[c]);
    workers = std::clamp<std::size_t>(
        widest / HierarchicalParams::kMinShardsPerWorker, 1,
        ThreadPool::default_workers());
  }
  workspaces_.resize(workers);
  for (Partition& part : partitions_) build_locals(part, params);
  team_ = std::make_unique<ForkJoinTeam>(workers);
}

void HierarchicalMpcController::solve_shard(Shard& shard) {
  const double gain = hier_.coordination_gain;
  for (std::size_t qi = 0; qi < shard.rows.size(); ++qi) {
    const std::size_t q = shard.rows[qi];
    // With γ = 1 the shard sees the prediction itself (written as such
    // to keep the single-shard case bit-identical to the central MPC);
    // otherwise the residual is scaled toward the set point.
    const double b = model_.b[q];
    const double virtual_u =
        gain == 1.0  // eucon-lint: allow(float-equality)
            ? u_pred_[q]
            : b - gain * (b - u_pred_[q]);
    shard.u_scratch[qi] = std::clamp(virtual_u, 0.0, 1.0);
  }
  // The other partition actuated the same tasks last period: bring this
  // local's rate belief r(k-1) back to the rates actually applied.
  for (std::size_t ji = 0; ji < shard.owned.size(); ++ji)
    shard.r_scratch[ji] = rates_[shard.owned[ji]];
  shard.local->sync_rates(shard.r_scratch);
  const Vector& r_local = shard.local->update(shard.u_scratch);
  for (std::size_t ji = 0; ji < shard.owned.size(); ++ji) {
    const std::size_t j = shard.owned[ji];
    const double dr = r_local[ji] - rates_[j];
    if (dr != 0.0)  // eucon-lint: allow(float-equality)
      for (std::size_t k = ft_.row_begin(j); k < ft_.row_end(j); ++k)
        u_pred_[ft_.col_index(k)] += ft_.value(k) * dr;
    rates_[j] = r_local[ji];
  }
}

const Vector& HierarchicalMpcController::update(const Vector& u) {
  EUCON_REQUIRE(u.size() == model_.num_processors(),
                "utilization vector size mismatch");
  // One multicolor Gauss–Seidel sweep over this period's partition (parity
  // alternates between the base and staggered layouts): colors solve in
  // ascending order against the prediction ũ, which starts at the
  // measurement and absorbs each shard's commanded rate moves through the
  // nominal plant (Δũ = F Δr, scattered off F^T's rows). The shards of a
  // color share no row, so its chunks are swept in parallel, touching
  // disjoint entries of ũ and the rates. All scratch is
  // preallocated — steady-state periods never touch the heap.
  Partition& part = partitions_[period_ % partitions_.size()];
  ++period_;
  u_pred_ = u;
  const std::size_t workers = team_->size();
  for (std::size_t c = 0; c < part.num_colors(); ++c) {
    const std::size_t* chunk = part.chunk_begin.data() + c * workers;
    auto sweep = [&](std::size_t w) {
      for (std::size_t i = chunk[w]; i < chunk[w + 1]; ++i)
        solve_shard(part.shards[part.order[i]]);
    };
    team_->fork_join(sweep);
  }
  return rates_;
}

std::size_t HierarchicalMpcController::shard_of_processor(std::size_t p) const {
  EUCON_REQUIRE(p < shard_of_.size(), "processor index out of range");
  return shard_of_[p];
}

std::size_t HierarchicalMpcController::num_shards(std::size_t partition) const {
  EUCON_REQUIRE(partition < partitions_.size(), "partition index out of range");
  return partitions_[partition].shards.size();
}

const HierarchicalMpcController::Shard& HierarchicalMpcController::shard_at(
    std::size_t s, std::size_t partition) const {
  EUCON_REQUIRE(s < num_shards(partition), "shard index out of range");
  return partitions_[partition].shards[s];
}

const std::vector<std::size_t>& HierarchicalMpcController::shard_tasks(
    std::size_t s, std::size_t partition) const {
  return shard_at(s, partition).owned;
}

const std::vector<std::size_t>& HierarchicalMpcController::shard_rows(
    std::size_t s, std::size_t partition) const {
  return shard_at(s, partition).rows;
}

const Vector& HierarchicalMpcController::shard_row_shares(std::size_t s) const {
  return shard_at(s, 0).share;
}

std::size_t HierarchicalMpcController::shard_color(
    std::size_t s, std::size_t partition) const {
  return shard_at(s, partition).color;
}

std::size_t HierarchicalMpcController::num_colors(std::size_t partition) const {
  EUCON_REQUIRE(partition < partitions_.size(), "partition index out of range");
  return partitions_[partition].num_colors();
}

std::size_t HierarchicalMpcController::shard_worker(
    std::size_t s, std::size_t partition) const {
  return shard_at(s, partition).worker;
}

std::size_t HierarchicalMpcController::max_shard_problem_size() const {
  std::size_t largest = 0;
  for (const Partition& part : partitions_)
    for (const Shard& shard : part.shards)
      largest = std::max(largest, shard.owned.size());
  return largest;
}

std::pair<std::size_t, std::size_t>
HierarchicalMpcController::workspace_capacity() const {
  std::pair<std::size_t, std::size_t> cap{0, 0};
  for (const qp::QpWorkspace& ws : workspaces_)
    cap = {std::max(cap.first, ws.max_vars()),
           std::max(cap.second, ws.max_cons())};
  return cap;
}

}  // namespace eucon::control
