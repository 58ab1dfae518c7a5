#ifndef INCDB_EVAL_PARALLEL_POLICY_H_
#define INCDB_EVAL_PARALLEL_POLICY_H_

/// \file parallel_policy.h
/// \brief When the executor's row driver splits an operator into chunks.
///
/// Every binary operator runs through one driver (Executor::Sweep in
/// eval/exec.cpp): its outer rows — left rows, or the hash join's probe
/// rows — either run on the calling thread or split into num_threads
/// contiguous chunks on the worker pool, whose outputs merge in chunk
/// order. EvalOptions::parallel_min_rows is a single knob, but the
/// per-row work of the operators differs by orders of magnitude: a
/// nested-loop join visits every pair (its weight counts pairs), while
/// difference, intersection and the semijoins/antijoins (SQL's [NOT] IN
/// among them) dismiss most rows with a single hash probe. At the
/// benchmark's committed 16k-tuple scale the probe-cheap operators lose
/// more to pool dispatch and chunk merging than they gain from threads
/// (BENCH_baseline @1t 1.01 ms vs @4t 1.05 ms before this policy), so
/// each operator divides its weight by a grain factor reflecting its
/// per-unit cost before comparing against parallel_min_rows. Tests that force the parallel paths with
/// parallel_min_rows = 0 still force them: any non-negative scaled weight
/// clears a zero threshold.

#include <cstddef>

namespace incdb {

/// The operators the row driver may split into chunks.
enum class ChunkOp {
  kNLJoin,        ///< weight = left×right pairs; every unit runs the predicate
  kHashJoin,      ///< weight = left+right rows (build + probe)
  kUnifySemiJoin, ///< weight = left+right rows; one ⇑-index probe per unit
  kDifference,    ///< weight = left+right rows; one hash probe per unit
  kIntersect,     ///< weight = left+right rows; one hash probe per unit
  kSemiJoin,      ///< weight = left+right rows; one key probe per unit
};

/// Work units per "row" of parallel_min_rows for the operator: the weight
/// is divided by this before the threshold comparison. The joins and ⋉⇑
/// count 1; the operators that cost one hash probe per row need ~64× more
/// rows before threading pays for dispatch + merge.
inline constexpr size_t ChunkGrain(ChunkOp op) {
  switch (op) {
    case ChunkOp::kDifference:
    case ChunkOp::kIntersect:
    case ChunkOp::kSemiJoin:
      return 64;
    default:
      return 1;
  }
}

/// True when an operator with `outer_rows` outer rows and work estimate
/// `weight` should split across the pool under `num_threads` workers and
/// the `parallel_min_rows` threshold.
inline bool ChunkParallelismProfitable(size_t num_threads, size_t outer_rows,
                                       size_t weight, size_t parallel_min_rows,
                                       ChunkOp op) {
  return num_threads > 1 && outer_rows >= 2 &&
         weight / ChunkGrain(op) >= parallel_min_rows;
}

}  // namespace incdb

#endif  // INCDB_EVAL_PARALLEL_POLICY_H_
