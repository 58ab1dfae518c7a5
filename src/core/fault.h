#ifndef INCDB_CORE_FAULT_H_
#define INCDB_CORE_FAULT_H_

/// \file fault.h
/// \brief Deterministic fault injection for robustness testing.
///
/// FaultInjector is a seeded, process-wide source of synthetic failures.
/// Named injection sites sit at allocation-heavy / status-returning
/// boundaries (relation materialization, pool dispatch, cache insert,
/// snapshot pin, node evaluation, key-index build: "exec.key_index" in
/// KeyIndexMemo::Get, core/key_index.h, before a built index is
/// published). When armed, each site roll either passes or returns a
/// *structured* error — kCancelled or kResourceExhausted with
/// StatusDetail::site naming the boundary — never kInternal, never a
/// crash. The differential-fuzzer fault sweep
/// (tests/fault_injection_test.cpp) asserts exactly that contract.
///
/// The sites compile to nothing unless INCDB_FAULT_INJECTION is defined
/// (CMake defines it for Debug configs and when -DINCDB_FORCE_FAULT_INJECTION=ON),
/// so Release/RelWithDebInfo builds pay zero cost. The class itself is
/// always compiled so tests can link and query CompiledIn().
///
/// Reproduce a failure: the sweep prints the (seed, rate) pair for each
/// case; re-arm with Configure(seed, rate) — or set INCDB_FAULT_SEED /
/// INCDB_FAULT_RATE in the environment — and the roll sequence replays
/// bit-for-bit (single-threaded execution; the mutex serializes rolls).

#include <cstdint>
#include <mutex>
#include <random>
#include <string>

#include "core/status.h"

namespace incdb {

class FaultInjector {
 public:
  /// The process-wide injector. On first use it arms itself from the
  /// INCDB_FAULT_SEED / INCDB_FAULT_RATE environment variables (rate
  /// defaults to 0 == disabled when unset).
  static FaultInjector& Global();

  /// True when the INCDB_FAULT_POINT sites were compiled into the
  /// library (Debug / forced builds). Tests skip the sweep otherwise.
  static bool CompiledIn();

  /// (Re)arm: same (seed, rate) ⇒ same injection sequence. Resets stats.
  void Configure(uint64_t seed, double rate);

  /// Disarm: every subsequent roll passes.
  void Disable();

  /// Roll the dice for `site`. OK when disarmed or the roll passes;
  /// otherwise a structured error whose detail()->site == site. The
  /// error kind rotates deterministically through kCancelled,
  /// kResourceExhausted ("injected resource exhaustion") and
  /// kResourceExhausted ("injected allocation failure").
  Status MaybeFault(const char* site);

  uint64_t checks() const;    ///< Rolls since the last Configure().
  uint64_t injected() const;  ///< Faults fired since the last Configure().

 private:
  FaultInjector();

  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  double rate_ = 0.0;
  uint64_t seed_ = 0;
  uint64_t checks_ = 0;
  uint64_t injected_ = 0;
};

// INCDB_FAULT_POINT(site): inside a Status/StatusOr-returning function,
// return an injected error for `site` (no-op unless compiled in).
//
// INCDB_FAULT_DROPPED(site): expression, true when a fault fired at
// `site` — for best-effort paths (e.g. a cache insert) that degrade
// gracefully by skipping the work instead of propagating an error.
#if defined(INCDB_FAULT_INJECTION)
#define INCDB_FAULT_POINT(site)                                       \
  do {                                                                \
    ::incdb::Status _fst = ::incdb::FaultInjector::Global().MaybeFault(site); \
    if (!_fst.ok()) return _fst;                                      \
  } while (0)
#define INCDB_FAULT_DROPPED(site) \
  (!::incdb::FaultInjector::Global().MaybeFault(site).ok())
#else
#define INCDB_FAULT_POINT(site) \
  do {                          \
  } while (0)
#define INCDB_FAULT_DROPPED(site) false
#endif

}  // namespace incdb

#endif  // INCDB_CORE_FAULT_H_
