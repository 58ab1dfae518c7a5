#ifndef INCDB_TPCH_TPCH_H_
#define INCDB_TPCH_TPCH_H_

/// \file tpch.h
/// \brief TPC-H-like workload for the experiments the paper surveys
/// (§4.2: the PODS'16 feasibility study [37] ran on TPC Benchmark H [65];
/// the SIGMOD'19 study [27] measured precision/recall under growing
/// incompleteness).
///
/// We cannot ship the TPC dbgen tool or a commercial DBMS, so this module
/// generates a *scaled-down* schema-compatible instance with a seeded RNG
/// and configurable null injection, and expresses the negation-heavy
/// decision-support queries (the NOT IN / NOT EXISTS family the study
/// highlights) in incdb's algebra. The experiments compare evaluations of
/// the same instance (SQL against Q+ cost, answers against certain
/// answers), so their shape rests on what the instance keeps: the schema,
/// the key/foreign-key structure and the null rate, not the row count.
///
/// Schema (nullable columns marked *; the other keys are never nulled):
///   nation  (n_nationkey, n_name, n_regionkey*)
///   customer(c_custkey, c_name, c_nationkey*, c_acctbal*)
///   supplier(s_suppkey, s_name, s_nationkey*, s_acctbal*)
///   part    (p_partkey, p_name, p_brand*, p_size*)
///   orders  (o_orderkey, o_custkey*, o_totalprice*, o_status*)
///   lineitem(l_orderkey*, l_partkey*, l_suppkey*, l_quantity*, l_price*)
/// A null l_orderkey is a lineitem of an unknown order. Under SQL's 3VL one
/// makes `o_orderkey NOT IN (SELECT l_orderkey ...)` u for every order not
/// listed, so W1 and W3 return no rows in SQL mode: §1's false negatives.

#include <cstdint>

#include "algebra/algebra.h"
#include "core/database.h"

namespace incdb {
namespace tpch {

struct GenOptions {
  /// Scale factor: 1.0 ≈ 25 nations, 150 customers, 1500 orders, 6000
  /// lineitems, 100 suppliers, 200 parts (a ~1000× reduction of TPC-H SF1).
  double scale = 1.0;
  /// Probability that a nullable cell is replaced by a fresh marked null.
  double null_rate = 0.0;
  uint64_t seed = 42;
};

/// Generates a database instance. Deterministic in (scale, null_rate, seed).
Database Generate(const GenOptions& opts);

/// A named benchmark query.
struct BenchQuery {
  std::string name;
  std::string description;
  AlgPtr algebra;
};

/// The workload: negation-heavy decision-support queries in the spirit of
/// TPC-H Q16/Q21/Q22 (the ones [37] singles out), plus positive controls.
///  W1  unshipped-orders     : orders with no lineitem        (NOT IN)
///  W2  inactive-customers   : customers with no order        (NOT EXISTS)
///  W3  unpaid-big-orders    : big orders minus ordered keys  (difference)
///  W4  order-join           : customers ⨝ orders ⨝ nation    (positive)
///  W5  lost-parts           : parts never appearing in any lineitem
///  W6  rich-inactive        : acctbal-filtered NOT EXISTS    (Q22-like)
///  W7  union-probe          : union of two selections        (positive)
///  W8  double-negation      : orders − (big-orders − ordered) (R−(S−T))
std::vector<BenchQuery> Workload();

}  // namespace tpch
}  // namespace incdb

#endif  // INCDB_TPCH_TPCH_H_
