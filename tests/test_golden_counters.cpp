#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/cmp.h"
#include "sim/workloads.h"

// Golden model counters: the integer SimMetrics counters (plus per-thread
// commit counts) of a short warm + measure run over a fixed grid, checked
// against a table recorded from an earlier build. Every bit-identity suite
// compares the current binary with itself (backend vs backend, skip vs
// lockstep, resume vs continuous); this one compares it with the previous
// binary, so a performance change that alters the simulated model fails
// tier-1 even when it does so consistently everywhere.
//
// The table must reproduce exactly in both clock modes (the suite runs with
// and without MFLUSH_NO_EVENT_SKIP=1). When a change is MEANT to alter the
// model, the failure output prints the replacement table.

namespace mflush {
namespace {

constexpr Cycle kWarm = 4'000;
constexpr Cycle kMeasure = 12'000;

// clang-format off
const char* const kGolden[] = {
    "2W3 icount fixed cycles=12000 committed=3954 threads=1208/2746 flushes=0 flushed=0 branches=390 mispredicts=47 l2_hits=156 l2_misses=54 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "2W3 icount dram cycles=12000 committed=3318 threads=1022/2296 flushes=0 flushed=0 branches=313 mispredicts=40 l2_hits=142 l2_misses=45 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=8 row_conflicts=26 far=0 bank_busy=12400 chan_busy=136",
    "2W3 stall-s30 fixed cycles=12000 committed=7888 threads=1063/6825 flushes=0 flushed=0 branches=639 mispredicts=64 l2_hits=153 l2_misses=120 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "2W3 stall-s30 dram cycles=12000 committed=6230 threads=845/5385 flushes=0 flushed=0 branches=484 mispredicts=48 l2_hits=137 l2_misses=95 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=9 row_misses=8 row_conflicts=33 far=0 bank_busy=15920 chan_busy=200",
    "2W3 flush-s30 fixed cycles=12000 committed=7176 threads=1075/6101 flushes=72 flushed=9849 branches=754 mispredicts=57 l2_hits=148 l2_misses=95 pf_miss=54 pf_hit=55 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "2W3 flush-s30 dram cycles=12000 committed=5747 threads=817/4930 flushes=62 flushed=8538 branches=592 mispredicts=43 l2_hits=132 l2_misses=83 pf_miss=48 pf_hit=51 pf_l1=0 stalls=0 gate_cycles=0 row_hits=7 row_misses=6 row_conflicts=34 far=0 bank_busy=15660 chan_busy=188",
    "2W3 mflush fixed cycles=12000 committed=6233 threads=1347/4886 flushes=68 flushed=9819 branches=812 mispredicts=64 l2_hits=156 l2_misses=111 pf_miss=54 pf_hit=49 pf_l1=0 stalls=0 gate_cycles=2147 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "2W3 mflush dram cycles=12000 committed=5294 threads=823/4471 flushes=54 flushed=8303 branches=592 mispredicts=40 l2_hits=139 l2_misses=92 pf_miss=47 pf_hit=40 pf_l1=0 stalls=0 gate_cycles=2792 row_hits=6 row_misses=7 row_conflicts=32 far=0 bank_busy=15030 chan_busy=180",
    "4W3 icount fixed cycles=12000 committed=12669 threads=1284/3452/5066/2867 flushes=0 flushed=0 branches=1727 mispredicts=158 l2_hits=191 l2_misses=784 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "4W3 icount dram cycles=12000 committed=7764 threads=998/1992/2864/1910 flushes=0 flushed=0 branches=1089 mispredicts=125 l2_hits=166 l2_misses=431 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=28 row_misses=0 row_conflicts=109 far=0 bank_busy=45840 chan_busy=548",
    "4W3 stall-s30 fixed cycles=12000 committed=15803 threads=1063/7426/3332/3982 flushes=0 flushed=0 branches=2672 mispredicts=215 l2_hits=197 l2_misses=611 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "4W3 stall-s30 dram cycles=12000 committed=9084 threads=845/3997/2042/2200 flushes=0 flushed=0 branches=1500 mispredicts=143 l2_hits=169 l2_misses=319 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=9 row_misses=0 row_conflicts=113 far=0 bank_busy=45920 chan_busy=488",
    "4W3 flush-s30 fixed cycles=12000 committed=15061 threads=1071/6615/4111/3264 flushes=153 flushed=25875 branches=3270 mispredicts=317 l2_hits=196 l2_misses=645 pf_miss=141 pf_hit=86 pf_l1=2 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "4W3 flush-s30 dram cycles=12000 committed=9089 threads=682/3325/2874/2208 flushes=112 flushed=18005 branches=1965 mispredicts=201 l2_hits=163 l2_misses=445 pf_miss=103 pf_hit=76 pf_l1=1 stalls=0 gate_cycles=0 row_hits=24 row_misses=0 row_conflicts=115 far=0 bank_busy=47920 chan_busy=556",
    "4W3 mflush fixed cycles=12000 committed=14597 threads=1341/5234/4243/3779 flushes=133 flushed=22148 branches=3185 mispredicts=313 l2_hits=202 l2_misses=580 pf_miss=136 pf_hit=41 pf_l1=0 stalls=0 gate_cycles=6520 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "4W3 mflush dram cycles=12000 committed=9368 threads=986/3552/2622/2208 flushes=96 flushed=15665 branches=2046 mispredicts=209 l2_hits=178 l2_misses=431 pf_miss=107 pf_hit=31 pf_l1=0 stalls=0 gate_cycles=6044 row_hits=19 row_misses=0 row_conflicts=125 far=0 bank_busy=51520 chan_busy=576",
    "8W1 icount fixed cycles=12000 committed=28956 threads=1116/1478/2845/5766/4114/5108/5209/3320 flushes=0 flushed=0 branches=4797 mispredicts=566 l2_hits=1099 l2_misses=443 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W1 icount dram cycles=12000 committed=19190 threads=919/1398/1994/4325/2823/2701/3033/1997 flushes=0 flushed=0 branches=3247 mispredicts=405 l2_hits=932 l2_misses=314 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=11 row_conflicts=122 far=0 bank_busy=51550 chan_busy=532",
    "8W1 stall-s30 fixed cycles=12000 committed=27026 threads=950/3513/2286/4929/4047/4513/3905/2883 flushes=0 flushed=0 branches=4645 mispredicts=532 l2_hits=1097 l2_misses=335 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W1 stall-s30 dram cycles=12000 committed=19563 threads=648/3535/1558/3531/3405/2253/2384/2249 flushes=0 flushed=0 branches=3504 mispredicts=407 l2_hits=955 l2_misses=249 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=10 row_conflicts=113 far=0 bank_busy=47700 chan_busy=492",
    "8W1 flush-s30 fixed cycles=12000 committed=28253 threads=1034/3399/2715/4232/4282/4054/4087/4450 flushes=438 flushed=61019 branches=7739 mispredicts=785 l2_hits=1267 l2_misses=454 pf_miss=139 pf_hit=443 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W1 flush-s30 dram cycles=12000 committed=18946 threads=593/2528/2084/3277/3015/2211/2308/2930 flushes=329 flushed=46574 branches=5473 mispredicts=573 l2_hits=1111 l2_misses=338 pf_miss=116 pf_hit=338 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=10 row_conflicts=112 far=0 bank_busy=47300 chan_busy=488",
    "8W1 mflush fixed cycles=12000 committed=30731 threads=1067/3261/2941/5209/4336/4625/4643/4649 flushes=223 flushed=39624 branches=7571 mispredicts=807 l2_hits=1193 l2_misses=461 pf_miss=145 pf_hit=156 pf_l1=0 stalls=0 gate_cycles=15369 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W1 mflush dram cycles=12000 committed=21933 threads=836/3411/2042/3970/2479/3254/3033/2908 flushes=174 flushed=32409 branches=5604 mispredicts=607 l2_hits=996 l2_misses=326 pf_miss=119 pf_hit=118 pf_l1=0 stalls=0 gate_cycles=10375 row_hits=0 row_misses=11 row_conflicts=127 far=0 bank_busy=53550 chan_busy=552",
    "8W3 icount fixed cycles=12000 committed=44390 threads=2742/3639/4179/3730/4511/5110/11783/8696 flushes=0 flushed=0 branches=5147 mispredicts=570 l2_hits=662 l2_misses=1544 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W3 icount dram cycles=12000 committed=21905 threads=1070/1637/1768/1919/1868/1914/7149/4580 flushes=0 flushed=0 branches=2597 mispredicts=328 l2_hits=536 l2_misses=553 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=1 row_misses=2 row_conflicts=169 far=0 bank_busy=68180 chan_busy=688",
    "8W3 stall-s30 fixed cycles=12000 committed=40754 threads=2019/3220/3559/3423/3847/4729/12548/7409 flushes=0 flushed=0 branches=4695 mispredicts=549 l2_hits=644 l2_misses=1219 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W3 stall-s30 dram cycles=12000 committed=22299 threads=891/1707/1651/2049/2307/2157/8709/2828 flushes=0 flushed=0 branches=2563 mispredicts=327 l2_hits=593 l2_misses=510 pf_miss=0 pf_hit=0 pf_l1=0 stalls=0 gate_cycles=0 row_hits=1 row_misses=5 row_conflicts=173 far=0 bank_busy=70530 chan_busy=716",
    "8W3 flush-s30 fixed cycles=12000 committed=41383 threads=2934/3702/4153/3534/4092/4396/11665/6907 flushes=374 flushed=59649 branches=6452 mispredicts=732 l2_hits=765 l2_misses=1722 pf_miss=223 pf_hit=299 pf_l1=0 stalls=0 gate_cycles=0 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W3 flush-s30 dram cycles=12000 committed=18534 threads=1080/1372/1818/1986/2043/1458/5648/3129 flushes=227 flushed=34041 branches=3196 mispredicts=381 l2_hits=614 l2_misses=758 pf_miss=122 pf_hit=194 pf_l1=0 stalls=0 gate_cycles=0 row_hits=3 row_misses=3 row_conflicts=157 far=0 bank_busy=63790 chan_busy=652",
    "8W3 mflush fixed cycles=12000 committed=43328 threads=3274/3790/3799/4122/4273/5486/11465/7119 flushes=244 flushed=40582 branches=6400 mispredicts=744 l2_hits=717 l2_misses=1332 pf_miss=214 pf_hit=102 pf_l1=0 stalls=0 gate_cycles=16690 row_hits=0 row_misses=0 row_conflicts=0 far=0 bank_busy=0 chan_busy=0",
    "8W3 mflush dram cycles=12000 committed=25466 threads=1352/1707/1994/2480/2249/2391/8483/4810 flushes=142 flushed=24832 branches=3830 mispredicts=470 l2_hits=592 l2_misses=642 pf_miss=129 pf_hit=48 pf_l1=0 stalls=0 gate_cycles=8940 row_hits=0 row_misses=3 row_conflicts=190 far=0 bank_busy=76750 chan_busy=772",
};
// clang-format on

std::string run_point(const std::string& wl_name, const std::string& policy,
                      bool dram) {
  const Workload wl = *workloads::by_name(wl_name);
  SimConfig cfg = SimConfig::paper_default(wl.num_cores(), /*seed=*/1);
  if (dram) cfg.mem.memory_model = MemModelKind::BankedDram;
  CmpSimulator sim(cfg, wl, *PolicySpec::parse(policy));
  sim.run(kWarm);
  sim.reset_stats();
  sim.run(kMeasure);
  const SimMetrics m = sim.metrics();

  std::string per_thread;
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    const SmtCore& core = sim.core(c);
    for (ThreadId t = 0; t < core.num_threads(); ++t) {
      if (!per_thread.empty()) per_thread += '/';
      per_thread += std::to_string(core.stats().committed[t]);
    }
  }
  auto field = [](const char* name, std::uint64_t v) {
    return std::string(" ") + name + "=" + std::to_string(v);
  };
  return wl_name + " " + policy + " " + (dram ? "dram" : "fixed") +
         field("cycles", m.cycles) + field("committed", m.committed) +
         " threads=" + per_thread + field("flushes", m.flush_events) +
         field("flushed", m.flushed_instructions) +
         field("branches", m.branches_resolved) +
         field("mispredicts", m.mispredicts) +
         field("l2_hits", m.l2_hits_observed) +
         field("l2_misses", m.l2_misses_observed) +
         field("pf_miss", m.policy_flushes_on_miss) +
         field("pf_hit", m.policy_flushes_on_hit) +
         field("pf_l1", m.policy_flushes_on_l1) +
         field("stalls", m.policy_stall_events) +
         field("gate_cycles", m.policy_gate_cycles) +
         field("row_hits", m.dram_row_hits) +
         field("row_misses", m.dram_row_misses) +
         field("row_conflicts", m.dram_row_conflicts) +
         field("far", m.dram_far_accesses) +
         field("bank_busy", m.dram_bank_busy_cycles) +
         field("chan_busy", m.dram_chan_busy_cycles);
}

TEST(GoldenCounters, MatchRecordedTable) {
  std::vector<std::string> actual;
  for (const char* wl : {"2W3", "4W3", "8W1", "8W3"})
    for (const char* policy : {"icount", "stall-s30", "flush-s30", "mflush"})
      for (const bool dram : {false, true})
        actual.push_back(run_point(wl, policy, dram));

  const std::vector<std::string> golden(std::begin(kGolden),
                                        std::end(kGolden));
  bool same = golden.size() == actual.size();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const bool ok = i < golden.size() && golden[i] == actual[i];
    same = same && ok;
    if (!ok && i < golden.size())
      ADD_FAILURE() << "expected: " << golden[i] << "\n  actual: " << actual[i];
  }
  EXPECT_EQ(golden.size(), actual.size());
  if (!same) {
    std::string table;
    for (const std::string& row : actual) table += "    \"" + row + "\",\n";
    ADD_FAILURE() << "replacement table:\n" << table;
  }
}

}  // namespace
}  // namespace mflush
