#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/env.h"
#include "core/factory.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"

// Cross-process snapshot canonicality: the same warmed state must produce
// BYTE-identical snapshot streams in two different processes.
//
// This is strictly stronger than SnapshotDeterminism.ResumeMatchesContinuous
// (same metrics after restore): content-addressed reuse — the warm-state
// store and the campaign result cache — keys artifacts by a hash of the
// bytes, so two hosts warming the same spec must hash identically. Before
// v3 of the snapshot format this did not hold: raw-memcpy'd records carried
// compiler padding holes whose garbage bytes depended on heap history and
// ASLR. Every hole is now an explicit zero-initialized member (enforced by
// tools/lint/mflush_lint.py's padding check), and RunningStat serializes
// field-wise.

namespace mflush {
namespace {

constexpr Cycle kWarm = 8'000;

std::vector<std::uint8_t> warm_and_capture() {
  const Workload wl = *workloads::by_name("4W2");
  const PolicySpec policy = *PolicySpec::parse("mflush");
  CmpSimulator sim(wl, policy, /*seed=*/7);
  sim.run(kWarm);
  return snapshot::capture(sim);
}

/// Child mode: when MFLUSH_SNAPBYTES_OUT is set, warm a chip, dump the
/// snapshot bytes to that path, and exit. A plain no-op otherwise (the test
/// exists to be re-exec'd by ByteIdenticalAcrossProcesses below).
TEST(SnapshotBytes, ChildCapture) {
  const std::string out = env::str_or("MFLUSH_SNAPBYTES_OUT");
  if (out.empty()) GTEST_SKIP() << "not in child mode";
  const std::vector<std::uint8_t> bytes = warm_and_capture();
  std::ofstream f(out, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good());
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(SnapshotBytes, ByteIdenticalAcrossProcesses) {
  // Resolve the symlink here: inside `sh -c` /proc/self/exe would name the
  // shell, not this binary.
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(n, 0);
  self[n] = '\0';

  const std::string a = ::testing::TempDir() + "snapbytes_a.bin";
  const std::string b = ::testing::TempDir() + "snapbytes_b.bin";
  for (const std::string& out : {a, b}) {
    const std::string cmd =
        "MFLUSH_SNAPBYTES_OUT=" + out + " '" + self +
        "' --gtest_filter=SnapshotBytes.ChildCapture"
        " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }
  const std::vector<std::uint8_t> bytes_a = read_all(a);
  const std::vector<std::uint8_t> bytes_b = read_all(b);
  std::remove(a.c_str());
  std::remove(b.c_str());

  ASSERT_GT(bytes_a.size(), 1024u) << "suspiciously small snapshot";
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  // Locate the first differing byte (if any) so a regression points at the
  // offending record instead of a bare "buffers differ".
  for (std::size_t i = 0; i < bytes_a.size(); ++i) {
    ASSERT_EQ(bytes_a[i], bytes_b[i])
        << "snapshot streams diverge at byte " << i << " of "
        << bytes_a.size()
        << " — a serialized record is emitting non-canonical bytes "
           "(unzeroed padding?)";
  }

  // And the in-process capture agrees too: same state, same bytes,
  // regardless of which process produced them.
  const std::vector<std::uint8_t> local = warm_and_capture();
  EXPECT_EQ(local, bytes_a);
}

/// Recapture is the identity: restoring a snapshot and capturing it again
/// must reproduce the same bytes. Unordered containers (the core's
/// in-flight load map, the TLBs) are written in key order, so the stream
/// does not depend on the insertion history of the map it came from.
TEST(SnapshotBytes, RecaptureOfMadeChipIsIdentity) {
  const PolicySpec families[] = {
      PolicySpec::icount(),    PolicySpec::brcount(),
      PolicySpec::misscount(), PolicySpec::flush_spec(30),
      PolicySpec::flush_ns(),  PolicySpec::stall(30),
      PolicySpec::mflush(),    PolicySpec::mflush_no_preventive()};
  for (const char* wl_name : {"2W3", "8W3"}) {
    const Workload wl = *workloads::by_name(wl_name);
    for (const bool dram : {false, true}) {
      for (const PolicySpec& policy : families) {
        SimConfig cfg = SimConfig::paper_default(wl.num_cores(), /*seed=*/1);
        if (dram) cfg.mem.memory_model = MemModelKind::BankedDram;
        CmpSimulator sim(cfg, wl, policy);
        sim.run(5'000);
        const std::vector<std::uint8_t> b = snapshot::capture(sim);
        const std::vector<std::uint8_t> again =
            snapshot::capture(*snapshot::make(b));
        std::size_t i = 0;
        while (i < b.size() && i < again.size() && b[i] == again[i]) ++i;
        EXPECT_TRUE(i == b.size() && i == again.size())
            << wl_name << " " << policy.label() << (dram ? " dram" : " fixed")
            << ": recapture diverges at byte " << i << " of " << b.size();
      }
    }
  }
}

}  // namespace
}  // namespace mflush
