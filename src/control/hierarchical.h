// Hierarchical (sharded) end-to-end utilization control.
//
// The decentralized controller (control/decentralized.h) runs one local
// MPC per task-owning processor — right for peer-to-peer deployments, but
// at cluster scale (1k–10k processors) the per-node bookkeeping dominates
// and most "neighborhoods" are near-identical slices of the same chains.
// This module groups processors into contiguous SHARDS and runs one local
// MPC per shard under a lightweight coordinator:
//
//   * tasks are owned exactly as in the decentralized architecture (the
//     shared rule of control/topology.h: largest allocation entry, ties to
//     the lowest processor index); a task belongs to the shard containing
//     its owning processor, so shards partition the actuators;
//   * a shard's local model is the dense sub-block of the sparse F over
//     its ROWS (every processor its owned tasks touch — shard members and
//     boundary processors alike, ascending) and its COLUMNS (owned tasks,
//     ascending). The sub-block is read straight off the CSR structure;
//     the global dense F is never materialized;
//   * the COORDINATOR reconciles boundary processors that several shards
//     observe with one multicolor Gauss–Seidel sweep per period (Saad,
//     Iterative Methods for Sparse Linear Systems, §12.4). At construction
//     the shards are colored greedily in index order: a shard takes the
//     smallest color no earlier shard sharing one of its rows holds. The
//     sweep runs the colors in ascending order against a PREDICTED
//     utilization ũ that starts at the measurement and absorbs every
//     earlier color's rate moves through the nominal plant model
//     (Δũ = F Δr, read off the CSR columns):
//
//         shard s sees   ũ_q ← b_q − γ · (b_q − ũ_q)   over its rows,
//
//     and advances ũ over its own rows by the Δr it commanded. Every shard
//     therefore works on the RESIDUAL error the earlier colors left — no
//     double-actuation on boundary rows, and a correction crosses every
//     shard boundary within a single period instead of one hop per period.
//     u = b remains a fixpoint (zero error commands zero moves, which leave
//     the prediction untouched), the same steady state the central MPC
//     settles to; γ < 1 damps how much of the residual each shard takes.
//     A single all-covering shard sees the raw measurement and reduces the
//     controller to the central MPC exactly;
//   * two shards of one color share no row, so they read and write
//     disjoint entries of ũ and of the rates: within a color the order of
//     the solves does not matter, and the shards of a color solve in
//     parallel. Chain clusters are rings, so their shard conflict graph is
//     a cycle: an even shard count needs two colors, an odd one (the 10k
//     instance: 313 shards) three, the third holding the one shard that
//     closes the odd cycle;
//   * sweeps alternate between two STAGGERED partitions (the base one and
//     a copy with boundaries shifted by half a shard, odd periods using
//     the shifted one). A fixed partition can wedge against rate bounds:
//     a compensation chain that needs task α (shard A) and task β
//     (shard B) to move jointly stalls when each shard's half of the move
//     is individually unprofitable. Staggering makes every locally
//     coupled pair interior to one of the two partitions, so the sweep
//     escapes those blocked equilibria and lands on the central
//     fixpoint. Partitions share the actuators; each one's locals are
//     resynchronized (MpcController::sync_rates, allocation-free) with
//     the globally applied rates before they solve.
//
// Parallel sweep. HierarchicalParams::workers sets the number of sweep
// participants W: the calling thread plus W − 1 persistent threads of a
// common/fork_join.h team. Each color's shards (in index order) are split
// into W fixed contiguous chunks; per color, participant w sweeps chunk w
// and the caller joins them before the next color starts (a participant
// that finishes early also sweeps any chunk whose owner has not started —
// an asleep or descheduled thread — so a loaded machine degrades toward
// the serial sweep instead of waiting for a time slice). Because colors
// alternate along the ring, chunk w of every color covers the same
// stretch of the cluster, so on a quiet machine participant w's slice of
// the local gain matrices stays in its own core's cache from period to
// period (docs/performance.md). Every local MPC solves its QP through the
// workspace of its chunk index (one workspace per index, growth-only,
// sized to the largest shard of those chunks; a chunk runs on one thread
// at a time), so active-set scratch memory scales with W times the shard
// size, not with n. The rates are byte-identical for every W and every
// schedule: the colors run in a fixed order and a shard's inputs never
// depend on which thread solves it. W = 1 runs the same colored sweep on
// the caller alone, with no thread.
//
// workers = 0 (the default) picks ThreadPool::default_workers(), lowered
// until every participant gets at least kMinShardsPerWorker shards of the
// largest color; systems the size of MEDIUM therefore stay serial. A
// pooled run_batch of HIER runs at cluster scale should set
// `hier.workers = 1`: the pool already fills the cores, and W threads per
// run would oversubscribe them.
//
// The per-period update is allocation-free after construction, the
// fork-join included (decentralized_alloc_test counts operator new across
// the serial and a three-participant sweep); bench_scaling reports the
// period cost against n up to 10k processors and against W.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fork_join.h"
#include "control/controller.h"
#include "control/mpc.h"
#include "control/sparse_model.h"
#include "qp/active_set.h"

namespace eucon::control {

struct HierarchicalParams {
  // Auto mode's floor on shards per participant per color: below it, the
  // fork-join's dispatch and the join's wait for the slowest chunk
  // (several µs each way) outweigh the solves a participant takes over
  // (~5–10 µs per shard). docs/performance.md has the measurement.
  static constexpr std::size_t kMinShardsPerWorker = 8;

  // Processors per shard (the last shard takes the remainder). One shard
  // spanning all processors reproduces the central MPC exactly.
  std::size_t shard_size = 32;
  // Coordination gain γ on the residual error each shard is handed during
  // the Gauss–Seidel sweep. 1 = every shard attacks the full remaining
  // error; < 1 damps per-shard actuation when the nominal-gain prediction
  // is untrustworthy (strongly time-varying plant gains).
  double coordination_gain = 1.0;
  // Sweep participants (and chunks per color): the calling thread plus
  // workers − 1 threads. 0 = auto (see the file comment); 1 = serial. At
  // most ForkJoinTeam::kMaxSize. The rates do not depend on it.
  std::size_t workers = 0;

  void validate() const;
};

class HierarchicalMpcController final : public Controller {
 public:
  // shard_color / shard_worker of a shard that owns no tasks: it keeps no
  // local controller and never solves.
  static constexpr std::size_t kNoColor = SIZE_MAX;

  HierarchicalMpcController(SparsePlantModel model, MpcParams params,
                            HierarchicalParams hier,
                            linalg::Vector initial_rates);

  const linalg::Vector& update(const linalg::Vector& u) override EUCON_REALTIME;
  std::string name() const override { return "HIER"; }

  // Introspection for tests and benches. Partition 0 is the base
  // partition; partition 1, when present, mirrors it with boundaries
  // shifted by shard_size / 2. shard_of_processor and shard_row_shares
  // describe the base partition.
  std::size_t num_partitions() const { return partitions_.size(); }
  std::size_t num_shards(std::size_t partition = 0) const;
  std::size_t shard_of_processor(std::size_t p) const;
  // Tasks owned by shard s (global task indices, ascending).
  const std::vector<std::size_t>& shard_tasks(std::size_t s,
                                              std::size_t partition = 0) const;
  // Rows shard s observes (global processor indices, ascending; includes
  // boundary processors outside the shard).
  const std::vector<std::size_t>& shard_rows(std::size_t s,
                                             std::size_t partition = 0) const;
  // Shard s's allocation share of each of its rows (same order):
  // Σ_{j owned by s} f(q,j) / Σ_all j f(q,j). Shares sum to one over the
  // shards seeing a row; < 1 marks a boundary row. Diagnostic — the sweep
  // hands shards residuals, not share-scaled errors.
  const linalg::Vector& shard_row_shares(std::size_t s) const;
  // The sweep color of shard s (kNoColor: owns no tasks), the number of
  // colors of a partition, and the chunk index holding shard s (its
  // owning participant and its QP workspace).
  std::size_t shard_color(std::size_t s, std::size_t partition = 0) const;
  std::size_t num_colors(std::size_t partition = 0) const;
  std::size_t shard_worker(std::size_t s, std::size_t partition = 0) const;
  // Sweep participants W (HierarchicalParams::workers, auto resolved).
  std::size_t workers() const { return team_->size(); }
  // Decision variables of the largest local optimization.
  std::size_t max_shard_problem_size() const;
  // Capacity of the largest per-chunk QP workspace (variables, constraint
  // rows).
  std::pair<std::size_t, std::size_t> workspace_capacity() const;

 private:
  struct Shard {
    std::vector<std::size_t> owned;  // global task indices, ascending
    std::vector<std::size_t> rows;   // global processor indices, ascending
    linalg::Vector share;            // allocation share per local row
    linalg::Vector u_scratch;        // reconciled measurement buffer
    linalg::Vector r_scratch;        // rate resync gather buffer
    std::unique_ptr<MpcController> local;
    std::size_t color = kNoColor;
    std::size_t worker = kNoColor;
  };

  struct Partition {
    std::vector<Shard> shards;
    // Colored shard indices ordered by (color, index): color c is
    // order[color_begin[c] .. color_begin[c + 1]), and with W chunks per
    // color, chunk w of color c is
    // order[chunk_begin[c·W + w] .. chunk_begin[c·W + w + 1]).
    std::vector<std::size_t> order;
    std::vector<std::size_t> color_begin;
    std::vector<std::size_t> chunk_begin;

    std::size_t num_colors() const { return color_begin.size() - 1; }
  };

  // Shards of one partition with their tasks, rows and colors (no local
  // controllers yet).
  Partition layout_partition(std::size_t offset) const;
  // Splits each color into chunks and builds every shard's local MPC on
  // its chunk index's workspace.
  void build_locals(Partition& part, const MpcParams& params);
  // One shard's Gauss–Seidel step: reconcile, resync, solve, push its rate
  // moves into ũ.
  void solve_shard(Shard& shard);
  const Shard& shard_at(std::size_t s, std::size_t partition) const;

  SparsePlantModel model_;
  HierarchicalParams hier_;
  // partitions_[0] is the base partition; partitions_[1], present unless
  // the base is a single all-covering shard (or shard_size == 1), has its
  // boundaries shifted by shard_size / 2. update() alternates.
  std::vector<Partition> partitions_;
  std::vector<std::size_t> shard_of_;  // processor -> base shard index
  linalg::SparseMatrix ft_;     // F^T: per-task processor lists (CSR rows)
  linalg::Vector u_pred_;       // sweep prediction, advanced color by color
  std::size_t period_ = 0;      // parity selects the sweep partition
  std::vector<qp::QpWorkspace> workspaces_;  // one per chunk index
  linalg::Vector rates_;
  // Declared last so its threads are joined before anything they touch
  // is destroyed.
  std::unique_ptr<ForkJoinTeam> team_;
};

}  // namespace eucon::control
