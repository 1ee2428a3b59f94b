#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"

// The issue stage selects from a ready index that dispatch and register
// writeback maintain incrementally (SmtCore, pipeline/iq.h). These tests
// check it against the definition it replaces: after every tick, each
// queue's ready index must equal a brute-force scan of that queue — its
// unissued non-store entries whose sources are all ready, in age order.

namespace mflush {
namespace {

std::vector<PolicySpec> policy_families() {
  return {PolicySpec::icount(),        PolicySpec::brcount(),
          PolicySpec::misscount(),     PolicySpec::flush_spec(30),
          PolicySpec::flush_ns(),      PolicySpec::stall(30),
          PolicySpec::mflush(),        PolicySpec::mflush_no_preventive()};
}

std::vector<UopHandle> scan(const SmtCore& core, const IssueQueue& q) {
  std::vector<UopHandle> out;
  for (const UopHandle h : q.entries()) {
    const MicroOp& u = core.pool()[h];
    if (!u.issued && !u.is_store() && core.operands_ready(h)) out.push_back(h);
  }
  return out;
}

std::vector<UopHandle> index_of(const IssueQueue& q) {
  std::vector<UopHandle> out;
  for (const IssueQueue::Ready& r : q.ready()) out.push_back(r.h);
  return out;
}

/// Compares every core's three ready indices with the scan; returns the
/// number of ready entries seen (to prove the check is not vacuous).
std::size_t expect_index_matches_scan(const CmpSimulator& sim,
                                      const std::string& what) {
  std::size_t seen = 0;
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    const SmtCore& core = sim.core(c);
    const IssueQueue* queues[] = {&core.iq_int(), &core.iq_fp(),
                                  &core.iq_mem()};
    for (const IssueQueue* q : queues) {
      const std::vector<UopHandle> got = index_of(*q);
      EXPECT_EQ(got, scan(core, *q))
          << what << " core " << c << " at cycle " << sim.now();
      seen += got.size();
    }
  }
  return seen;
}

void tick_and_check(CmpSimulator& sim, Cycle cycles, const std::string& what) {
  std::size_t seen = 0;
  for (Cycle i = 0; i < cycles && !::testing::Test::HasFailure(); ++i) {
    sim.run(1);
    seen += expect_index_matches_scan(sim, what);
  }
  EXPECT_GT(seen, 0u) << what << ": no ready entry was ever checked";
}

TEST(ReadyIndex, MatchesReadinessScanEveryTick) {
  for (const bool dram : {false, true}) {
    for (const bool skip : {true, false}) {
      for (const PolicySpec& policy : policy_families()) {
        const Workload wl = *workloads::by_name("4W3");
        SimConfig cfg = SimConfig::paper_default(wl.num_cores(), /*seed=*/3);
        if (dram) cfg.mem.memory_model = MemModelKind::BankedDram;
        CmpSimulator sim(cfg, wl, policy);
        sim.set_event_skip(skip);
        const std::string what = policy.label() + (dram ? "/dram" : "/fixed") +
                                 (skip ? "/skip" : "/lockstep");
        tick_and_check(sim, 2'500, what);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(ReadyIndex, RebuiltExactlyOnRestore) {
  for (const bool dram : {false, true}) {
    for (const PolicySpec& policy : policy_families()) {
      const Workload wl = *workloads::by_name("2W3");
      SimConfig cfg = SimConfig::paper_default(wl.num_cores(), /*seed=*/5);
      if (dram) cfg.mem.memory_model = MemModelKind::BankedDram;
      CmpSimulator donor(cfg, wl, policy);
      donor.run(3'000);
      const std::string what =
          policy.label() + (dram ? "/dram" : "/fixed") + " restored";
      const std::unique_ptr<CmpSimulator> made =
          snapshot::make(snapshot::capture(donor));
      expect_index_matches_scan(*made, what);
      // The rebuilt index must keep selecting exactly as the donor's: tick
      // both with the same call pattern (the per-core sleep state is part
      // of the snapshot) and compare their bytes at the end.
      tick_and_check(*made, 1'000, what);
      for (int i = 0; i < 1'000; ++i) donor.run(1);
      EXPECT_TRUE(snapshot::capture(*made) == snapshot::capture(donor))
          << what;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace mflush
