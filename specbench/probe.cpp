// In-process side of the spec-to-CSV benchmark (driven by run.py).
//
//   specbench_probe reference SPEC OUT_CSV
//       Run SPEC on SerialBackend in this process and write the CSV that
//       `mflushsim --spec SPEC --csv` prints, minus its wall_s column — the
//       correctness reference. Prints one JSON line: job count and the
//       simulated cycles the spec executes (measured jobs, warm jobs).
//   specbench_probe setup SPEC
//       Time the per-point fixed cost five times in this process and print
//       the median: ExperimentSpec::from_text + expand, plus one
//       CmpSimulator construction per distinct chip.
//   specbench_probe trace SPEC WORKDIR
//       The traced run: per-layer metrics from timing decorators around the
//       library's public interfaces (see README.md for every metric).
//
// The simulator itself is untouched: every span below wraps a call into a
// public function from the outside.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/archive.h"
#include "core/factory.h"
#include "energy/accounting.h"
#include "mem/hierarchy.h"
#include "pipeline/smt_core.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/cmp.h"
#include "sim/experiment_spec.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "trace/generator.h"
#include "trace/spec2000.h"

namespace fs = std::filesystem;
using namespace mflush;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One JSON object on one line, keys in insertion order.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return raw(key, os.str());
  }
  JsonLine& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ('"' + key + "\": " + v);
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The chip config of a job — the same mapping every run path uses.
SimConfig chip_config(const JobSpec& job) {
  SimConfig cfg = SimConfig::paper_default(job.workload.num_cores(), job.seed);
  cfg.mem.memory_model = job.mem_model;
  cfg.mem.dram = job.dram;
  return cfg;
}

/// `mflushsim --csv` row minus the trailing wall_s column (same stream
/// formatting as the tool, so rows compare as text).
std::string csv_row(const RunResult& r) {
  const SimMetrics& m = r.metrics;
  std::ostringstream os;
  os << r.workload << ',' << r.policy << ',' << m.cycles << ','
     << m.committed << ',' << m.ipc << ',' << m.flush_events << ','
     << m.flushed_instructions << ',' << m.energy.flush_wasted_units << ','
     << m.l2_hit_time_mean;
  return os.str();
}

std::vector<RunResult> run_reference(const ExperimentSpec& spec) {
  SerialBackend serial;
  return run_experiment(spec, serial);
}

/// Distinct warm parents a sampled spec's forks reference (key → warm job).
std::map<std::uint64_t, JobSpec> parents_of(const std::vector<JobSpec>& jobs) {
  std::map<std::uint64_t, JobSpec> parents;
  for (const JobSpec& j : jobs)
    if (j.parent_key != 0)
      parents.emplace(j.parent_key, warmstore::warm_job_of(j));
  return parents;
}

// ------------------------------------------------------------- reference

int cmd_reference(const std::string& spec_path, const std::string& out_csv) {
  const ExperimentSpec spec = ExperimentSpec::from_text(read_text(spec_path));
  const std::vector<RunResult> results = run_reference(spec);
  std::ofstream out(out_csv);
  out << "workload,policy,cycles,committed,ipc,flushes,flushed_instrs,"
         "wasted_units,l2_hit_mean\n";
  std::uint64_t measured_cycles = 0;
  for (const RunResult& r : results) {
    out << csv_row(r) << '\n';
    measured_cycles += r.simulated_cycles;
  }
  if (!out) throw std::runtime_error("cannot write " + out_csv);
  const std::uint64_t warm_cycles =
      parents_of(spec.expand()).size() * spec.warmup;
  std::cout << JsonLine()
                   .num("jobs", static_cast<double>(results.size()))
                   .num("measured_cycles", static_cast<double>(measured_cycles))
                   .num("warm_cycles", static_cast<double>(warm_cycles))
                   .str()
            << '\n';
  return 0;
}

// ----------------------------------------------------------------- setup

int cmd_setup(const std::string& spec_path) {
  const std::string text = read_text(spec_path);
  // The first round runs in a fresh process, the later ones warm, as the
  // points of a sweep do in one mflushsim or worker process.
  constexpr int kRounds = 5;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    const ExperimentSpec spec = ExperimentSpec::from_text(text);
    const std::vector<JobSpec> jobs = spec.expand();
    // One chip per distinct (workload, seed): trace sources, bbdict and the
    // L2 prewarm are the construction cost every point pays.
    std::set<std::pair<std::string, std::uint64_t>> built;
    for (const JobSpec& j : jobs) {
      if (!built.emplace(j.workload.name, j.seed).second) continue;
      const CmpSimulator sim(chip_config(j), j.workload, j.policy);
    }
    rounds.push_back(since(t0));
  }
  std::sort(rounds.begin(), rounds.end());
  std::cout << JsonLine().num("setup_s", rounds[kRounds / 2]).str() << '\n';
  return 0;
}

// ------------------------------------------------------------------ spans

/// Time spent in one layer: inclusive time, the part of it covered by
/// nested spans of other layers, and the number of calls.
struct Layer {
  double incl = 0.0;
  double child = 0.0;
  std::uint64_t calls = 0;
  [[nodiscard]] double self() const { return incl - child; }
};

Layer* g_open = nullptr;  ///< innermost open span's layer (single-threaded)

/// Scoped span: charges its duration to `layer` and to the enclosing
/// span's child time, so self times partition the traced wall time.
class Span {
 public:
  explicit Span(Layer& layer)
      : layer_(layer), parent_(g_open), t0_(Clock::now()) {
    g_open = &layer;
  }
  ~Span() {
    const double d = since(t0_);
    layer_.incl += d;
    ++layer_.calls;
    if (parent_ != nullptr) parent_->child += d;
    g_open = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer& layer_;
  Layer* parent_;
  Clock::time_point t0_;
};

struct Ledger {
  Layer tick;         ///< SmtCore::tick (pipeline)
  Layer control;      ///< CoreControl response actions the policy calls
  Layer on_cycle;     ///< FetchPolicy::on_cycle
  Layer fetch_order;  ///< FetchPolicy::fetch_order
  Layer callback;     ///< FetchPolicy load-lifecycle callbacks
  Layer trace_at;     ///< TraceSource::at
  Layer mem_tick;     ///< MemoryHierarchy::tick
};

class TimedTrace final : public TraceSource {
 public:
  TimedTrace(TraceSource& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}
  const TraceInstr& at(SeqNo seq) override {
    const Span s(ledger_.trace_at);
    return inner_.at(seq);
  }
  void retire_up_to(SeqNo seq) override { inner_.retire_up_to(seq); }
  const char* name() const noexcept override { return inner_.name(); }

 private:
  TraceSource& inner_;
  Ledger& ledger_;
};

/// Response actions run inside the policy's on_cycle but are pipeline
/// work; this proxy charges them back to the pipeline.
class TimedControl final : public CoreControl {
 public:
  TimedControl(CoreControl& inner, Layer& layer)
      : inner_(inner), layer_(layer) {}
  bool flush_after_load(std::uint64_t token) override {
    const Span s(layer_);
    return inner_.flush_after_load(token);
  }
  bool stall_until_load(std::uint64_t token) override {
    const Span s(layer_);
    return inner_.stall_until_load(token);
  }
  void set_fetch_gate(ThreadId tid, bool gated) override {
    const Span s(layer_);
    inner_.set_fetch_gate(tid, gated);
  }

 private:
  CoreControl& inner_;
  Layer& layer_;
};

class TimedPolicy final : public FetchPolicy {
 public:
  TimedPolicy(std::unique_ptr<FetchPolicy> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  const char* name() const noexcept override { return inner_->name(); }
  Counters counters() const override { return inner_->counters(); }
  void on_cycle(Cycle now, CoreControl& ctrl) override {
    const Span s(ledger_.on_cycle);
    TimedControl timed(ctrl, ledger_.control);
    inner_->on_cycle(now, timed);
  }
  Cycle quiescent_until(Cycle now) const override {
    return inner_->quiescent_until(now);
  }
  void save_state(ArchiveWriter& ar) const override { inner_->save_state(ar); }
  void load_state(ArchiveReader& ar) override { inner_->load_state(ar); }
  void on_load_issued(ThreadId t, std::uint64_t tok, std::uint32_t bank,
                      Cycle now) override {
    const Span s(ledger_.callback);
    inner_->on_load_issued(t, tok, bank, now);
  }
  void on_load_l2_path(ThreadId t, std::uint64_t tok, std::uint32_t bank,
                       Cycle now) override {
    const Span s(ledger_.callback);
    inner_->on_load_l2_path(t, tok, bank, now);
  }
  void on_load_l2_miss(ThreadId t, std::uint64_t tok, std::uint32_t bank,
                       Cycle now) override {
    const Span s(ledger_.callback);
    inner_->on_load_l2_miss(t, tok, bank, now);
  }
  void on_load_resolved(ThreadId t, std::uint64_t tok, Cycle issue, Cycle now,
                        bool l2_accessed, bool l2_hit,
                        std::uint32_t bank) override {
    const Span s(ledger_.callback);
    inner_->on_load_resolved(t, tok, issue, now, l2_accessed, l2_hit, bank);
  }
  void on_thread_flushed(ThreadId t, std::uint64_t tok) override {
    const Span s(ledger_.callback);
    inner_->on_thread_flushed(t, tok);
  }
  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    const Span s(ledger_.fetch_order);
    inner_->fetch_order(view, order);
  }

 private:
  std::unique_ptr<FetchPolicy> inner_;
  Ledger& ledger_;
};

/// The chip CmpSimulator builds, assembled from public pieces with timed
/// trace sources and policies, and driven by either of CmpSimulator::run's
/// loops: lockstep (every core ticked every cycle) or event skip, replayed
/// step for step. The kernel's own calls in the skip loop (wake checks,
/// horizons, idle crediting) are not spanned, as each is a few nanoseconds:
/// they are the time no span covers. Its SimMetrics must equal
/// CmpSimulator's in both modes.
class Harness {
 public:
  Harness(const JobSpec& job, Ledger& ledger)
      : cfg_(chip_config(job)), mem_(cfg_), ledger_(ledger) {
    const std::uint32_t tpc = cfg_.core.threads_per_core;
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      std::vector<TraceSource*> traces;
      for (std::uint32_t t = 0; t < tpc; ++t) {
        const std::uint32_t tid = c * tpc + t;
        const auto profile = spec2000::by_code(job.workload.codes.at(tid));
        if (!profile) throw std::runtime_error("unknown benchmark code");
        sources_.push_back(std::make_unique<SyntheticTraceSource>(
            *profile, cfg_.seed, cfg_.rewind_window(), tid));
        timed_.push_back(
            std::make_unique<TimedTrace>(*sources_.back(), ledger));
        traces.push_back(timed_.back().get());
      }
      cores_.push_back(std::make_unique<SmtCore>(
          c, cfg_, mem_,
          std::make_unique<TimedPolicy>(make_policy(job.policy, cfg_), ledger),
          std::move(traces)));
    }
    if (cfg_.prewarm_l2) {
      for (const auto& src : sources_) {
        const auto r = src->regions();
        for (std::uint32_t i = 0; i < r.hot_lines; ++i)
          mem_.prewarm_l2_line(r.hot_base + static_cast<Addr>(i) * 64);
        for (std::uint32_t i = 0; i < r.l2_lines; ++i)
          mem_.prewarm_l2_line(r.l2_base + static_cast<Addr>(i) * 64);
        for (std::uint32_t i = 0; i < r.code_lines; ++i)
          mem_.prewarm_l2_line(r.code_base + static_cast<Addr>(i) * 64);
      }
    }
  }

  void run(Cycle cycles, bool skip) {
    const Cycle end = now_ + cycles;
    if (!skip) {
      for (Sleep& z : sleep_) z = Sleep{};
      while (now_ < end) {
        ++now_;
        tick_mem();
        for (auto& core : cores_) {
          const Span s(ledger_.tick);
          core->tick(now_);
        }
      }
      return;
    }
    // CmpSimulator::run's event-skip loop (src/sim/cmp.cpp).
    while (now_ < end) {
      ++now_;
      tick_mem();
      bool all_asleep = true;
      for (CoreId c = 0; c < cores_.size(); ++c) {
        Sleep& z = sleep_[c];
        if (z.asleep) {
          if (now_ < z.wake_at &&
              (now_ < z.event_check_at || !mem_.has_events(c)))
            continue;
          cores_[c]->advance_idle(z.slept_at, now_ - 1 - z.slept_at);
          z.asleep = false;
        }
        {
          const Span s(ledger_.tick);
          cores_[c]->tick(now_);
        }
        const Cycle horizon = cores_[c]->next_local_event(now_);
        if (horizon > now_ + 1) {
          z = Sleep{true, now_, horizon,
                    horizon == kNeverCycle ? mem_.next_event_cycle_for(c, now_)
                                           : 0};
        } else {
          all_asleep = false;
        }
      }
      if (now_ >= end) break;
      if (!all_asleep) continue;
      Cycle event = mem_.next_event_cycle(now_);
      for (const Sleep& z : sleep_) event = std::min(event, z.wake_at);
      const Cycle target = event < end ? event : end;
      if (target > now_ + 1) now_ = target - 1;
    }
    for (CoreId c = 0; c < cores_.size(); ++c) {
      Sleep& z = sleep_[c];
      if (z.asleep && z.slept_at < end) {
        cores_[c]->advance_idle(z.slept_at, end - z.slept_at);
        z.slept_at = end;
      }
    }
  }

  void reset_stats() {
    mem_.reset_stats();
    for (auto& core : cores_) core->reset_stats();
  }

  [[nodiscard]] const MemoryHierarchy& memory() const { return mem_; }
  [[nodiscard]] const std::vector<std::unique_ptr<SmtCore>>& cores() const {
    return cores_;
  }

  /// CmpSimulator::metrics over the harness's components.
  [[nodiscard]] SimMetrics metrics() const {
    SimMetrics m;
    m.cycles = cores_.empty() ? 0 : cores_[0]->stats().cycles;
    for (const auto& core : cores_) {
      const CoreStats& s = core->stats();
      m.committed += s.committed_total();
      for (std::uint32_t t = 0; t < core->num_threads(); ++t) {
        m.per_thread_ipc.push_back(
            m.cycles ? static_cast<double>(s.committed[t]) /
                           static_cast<double>(m.cycles)
                     : 0.0);
      }
      m.flush_events += s.policy_flush_events;
      m.flushed_instructions += s.policy_flushed_total();
      m.branches_resolved += s.branches_resolved;
      m.mispredicts += s.mispredicts;
      m.energy = energy::merge(m.energy, energy::report_for(s));
      const FetchPolicy::Counters pc = core->policy().counters();
      m.policy_flushes_on_miss += pc.flushes_on_miss;
      m.policy_flushes_on_hit += pc.flushes_on_hit;
      m.policy_flushes_on_l1 += pc.flushes_on_l1;
      m.policy_stall_events += pc.stall_events;
      m.policy_gate_cycles += pc.gate_cycles;
    }
    m.ipc = m.cycles ? static_cast<double>(m.committed) /
                           static_cast<double>(m.cycles)
                     : 0.0;
    const MemStats& ms = mem_.stats();
    m.l2_hit_time_mean = ms.l2_load_hit_time.mean();
    m.l2_hit_time_p50 = ms.l2_load_hit_time.quantile(0.5);
    m.l2_hit_time_p90 = ms.l2_load_hit_time.quantile(0.9);
    m.l2_hits_observed = ms.l2_load_hit_time.count();
    m.l2_misses_observed = ms.l2_load_miss_time.count();
    m.l2_hit_time_hist = ms.l2_load_hit_time;
    const MemModelStats& ds = mem_.memory_model().stats();
    m.dram_row_hits = ds.row_hits;
    m.dram_row_misses = ds.row_misses;
    m.dram_row_conflicts = ds.row_conflicts;
    m.dram_far_accesses = ds.far_accesses;
    m.dram_bank_busy_cycles = ds.bank_busy_cycles;
    m.dram_chan_busy_cycles = ds.chan_busy_cycles;
    return m;
  }

 private:
  SimConfig cfg_;
  MemoryHierarchy mem_;
  std::vector<std::unique_ptr<SyntheticTraceSource>> sources_;
  std::vector<std::unique_ptr<TimedTrace>> timed_;
  std::vector<std::unique_ptr<SmtCore>> cores_;
  /// A core's local clock in the skip loop (CmpSimulator::CoreClock).
  struct Sleep {
    bool asleep = false;
    Cycle slept_at = 0;
    Cycle wake_at = kNeverCycle;
    Cycle event_check_at = 0;
  };

  void tick_mem() {
    const Span s(ledger_.mem_tick);
    mem_.tick(now_);
  }

  Ledger& ledger_;
  std::vector<Sleep> sleep_ = std::vector<Sleep>(cfg_.num_cores);
  Cycle now_ = 0;
};

// ------------------------------------------------------------------ trace

std::uint64_t file_bytes(const fs::path& dir, const std::string& ext) {
  std::uint64_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (ext.empty() || name.find(ext) != std::string::npos) n += e.file_size();
  }
  return n;
}

std::size_t file_count(const fs::path& dir, const std::string& suffix) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++n;
  }
  return n;
}

/// 52-bit FNV-1a digest of every result's full SimMetrics (plus labels and
/// simulated cycles), wall time zeroed: exact as a JSON number.
double metrics_digest(std::vector<RunResult> results) {
  std::vector<std::pair<std::uint32_t, RunResult>> slots;
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].wall_seconds = 0.0;
    results[i].payload = nullptr;
    slots.emplace_back(static_cast<std::uint32_t>(i), results[i]);
  }
  const std::vector<std::uint8_t> bytes = worker::encode_results(slots);
  return static_cast<double>(fnv1a(bytes) & ((std::uint64_t{1} << 52) - 1));
}


void add(Layer& into, const Layer& from) {
  into.incl += from.incl;
  into.child += from.child;
  into.calls += from.calls;
}

void add(Ledger& into, const Ledger& from) {
  add(into.tick, from.tick);
  add(into.control, from.control);
  add(into.on_cycle, from.on_cycle);
  add(into.fetch_order, from.fetch_order);
  add(into.callback, from.callback);
  add(into.trace_at, from.trace_at);
  add(into.mem_tick, from.mem_tick);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double count(std::uint64_t n) { return static_cast<double>(n); }

/// The traced run's correctness checks: each comparison is attempted, each
/// mismatch failed and named on stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void operator()(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "mismatch: " << what << '\n';
    }
  }
};

/// (warm key, snapshot bytes) pairs the snapshot and store layers time.
using Snapshots =
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>;

void trace_spec(const std::string& text, JsonLine& out) {
  constexpr int kReps = 20;
  double parse_s = 0.0;
  double expand_s = 0.0;
  std::size_t jobs = 0;
  for (int i = 0; i < kReps; ++i) {
    auto t0 = Clock::now();
    const ExperimentSpec spec = ExperimentSpec::from_text(text);
    parse_s += since(t0);
    t0 = Clock::now();
    jobs = spec.expand().size();
    expand_s += since(t0);
  }
  out.num("spec.parse_s", parse_s / kReps)
      .num("spec.expand_s", expand_s / kReps)
      .num("spec.jobs", count(jobs));
}

/// WorkerBackend with its protocol files kept in `dir`, twice: with a
/// coordinator warm store (pre-filled when `hot`, as `--campaign` gives
/// the CLI one) and without one (plain `--backend worker`, where parents
/// travel inline). Must run while this process's warm-parent registry is
/// still empty, so a cold store really warms in the workers. Returns the
/// results of both runs.
std::vector<std::vector<RunResult>> trace_backend(
    const ExperimentSpec& spec,
    const std::map<std::uint64_t, JobSpec>& parents, const fs::path& dir,
    bool hot, JsonLine& out) {
  std::optional<WarmStore> store;
  if (!parents.empty()) {
    store.emplace((dir / "worker-warm").string());
    if (hot) {
      for (const auto& [key, warm] : parents)
        store->put(key, run_job(warm).payload);
    }
  }
  const auto run = [&](WarmStore* warm, const fs::path& scratch) {
    fs::create_directories(scratch);
    WorkerBackend::Options opts;
    opts.max_processes = 2;
    opts.keep_files = true;
    opts.scratch_dir = scratch.string();
    opts.warm_store = warm;
    WorkerBackend backend(opts);
    RunOptions ropts;
    ropts.warm_store = warm;
    ResultSink sink;
    return run_experiment(spec, backend, sink, ropts);
  };

  const fs::path scratch = dir / "worker";
  const auto t0 = Clock::now();
  std::vector<std::vector<RunResult>> results;
  results.push_back(run(store ? &*store : nullptr, scratch));
  const double run_s = since(t0);
  const double up = count(file_bytes(scratch, ".mfj"));
  out.num("worker.batches", count(file_count(scratch, ".mfj")))
      .num("worker.up_bytes", up)
      .num("worker.down_bytes", count(file_bytes(scratch, ".mfr")))
      .num("worker.up_bytes_per_point", ratio(up, count(spec.num_points())))
      .num("worker.run_s", run_s);

  const fs::path storeless = dir / "worker-storeless";
  results.push_back(run(nullptr, storeless));
  out.num("worker.storeless_up_bytes", count(file_bytes(storeless, ".mfj")));
  return results;
}

/// Exact simulated statistics of the reference run.
void trace_model(const std::vector<RunResult>& reference, JsonLine& out) {
  std::map<std::string, std::pair<double, int>> ipc;  // policy → sum, n
  std::uint64_t flushed = 0;
  for (const RunResult& r : reference) {
    std::string label = r.policy;
    for (char& c : label)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    ipc[label].first += r.metrics.ipc;
    ++ipc[label].second;
    flushed += r.metrics.flushed_instructions;
  }
  const auto mean = [&](const std::string& p) {
    const auto it = ipc.find(p);
    return it == ipc.end() ? 0.0 : it->second.first / it->second.second;
  };
  for (const auto& [label, sum] : ipc)
    out.num("model.ipc." + label, sum.first / sum.second);
  out.num("model.mflush_gain_vs_flush_s30",
          ratio(mean("mflush"), mean("flush-s30")) - 1.0)
      .num("model.flushed_instrs", count(flushed))
      .num("model.digest", metrics_digest(reference));
}

/// Sums over every chip of the kernel runs and the traced harness.
struct ChipTotals {
  Ledger ledger;       ///< the traced lockstep harness
  Ledger skip_ledger;  ///< the traced skip-mode harness
  double skip_s = 0.0, lock_s = 0.0, harness_s = 0.0, skip_harness_s = 0.0;
  double chip_cycles = 0.0, core_cycles = 0.0, skipped = 0.0;
  std::uint64_t committed = 0, fetched = 0, issued = 0, squashed = 0;
  std::uint64_t loads = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t dram_reads = 0, row_hits = 0, on_miss = 0, flushes = 0;
  double l2_hit_time_sum = 0.0;
};

/// sim.kernel — the untraced CmpSimulator in both clock modes — and the
/// traced harness in both modes, over the measured interval of one chip.
/// The harness must match `want` (the reference result) or, when null, the
/// lockstep CmpSimulator. Returns the lockstep chip's final snapshot.
std::vector<std::uint8_t> trace_chip(const JobSpec& job, const SimMetrics* want,
                                     ChipTotals& t, Checks& check) {
  const std::string label = job.workload.name + "/" + job.policy.label() +
                            "/seed " + std::to_string(job.seed);
  SimMetrics skip_m, lock_m;
  std::vector<std::uint8_t> snap;
  for (const bool skip : {true, false}) {
    CmpSimulator sim(chip_config(job), job.workload, job.policy);
    sim.set_event_skip(skip);
    sim.run(job.warmup);
    sim.reset_stats();
    const Cycle idle0 = sim.idle_cycles_skipped();
    const auto t0 = Clock::now();
    sim.run(job.measure);
    const double s = since(t0);
    (skip ? skip_m : lock_m) = sim.metrics();
    if (skip) {
      t.skip_s += s;
      t.chip_cycles += static_cast<double>(job.measure);
      t.core_cycles += static_cast<double>(job.measure) * sim.num_cores();
      t.skipped += static_cast<double>(sim.idle_cycles_skipped() - idle0);
    } else {
      t.lock_s += s;
      snap = snapshot::capture(sim);
    }
  }
  check(skip_m == lock_m, "skip vs lockstep " + label);

  Ledger skip_ledger, lock_ledger;  // outlive the harnesses that use them
  const auto traced = [&](bool skip, Ledger& ledger) {
    auto harness = std::make_unique<Harness>(job, ledger);
    harness->run(job.warmup, skip);
    harness->reset_stats();
    ledger = Ledger{};  // only the measured interval counts
    const auto t0 = Clock::now();
    harness->run(job.measure, skip);
    (skip ? t.skip_harness_s : t.harness_s) += since(t0);
    add(skip ? t.skip_ledger : t.ledger, ledger);
    check(harness->metrics() == (want ? *want : lock_m),
          std::string(skip ? "skip" : "lockstep") + " harness vs reference " +
              label);
    return harness;
  };
  (void)traced(true, skip_ledger);
  const std::unique_ptr<Harness> harness = traced(false, lock_ledger);
  const SimMetrics hm = harness->metrics();

  t.committed += hm.committed;
  for (const auto& core : harness->cores()) {
    const CoreStats& s = core->stats();
    t.fetched += s.fetched;
    t.issued += s.instructions_issued;
    t.squashed += s.policy_flushed_total();
    t.loads += s.loads_issued;
    const FetchPolicy::Counters pc = core->policy().counters();
    t.on_miss += pc.flushes_on_miss;
    t.flushes += pc.flushes_on_miss + pc.flushes_on_hit + pc.flushes_on_l1;
  }
  t.l2_hits += hm.l2_hits_observed;
  t.l2_misses += hm.l2_misses_observed;
  t.l2_hit_time_sum += hm.l2_hit_time_mean * count(hm.l2_hits_observed);
  const MemModelStats& ds = harness->memory().memory_model().stats();
  t.dram_reads += ds.reads;
  t.row_hits += ds.row_hits;
  return snap;
}

/// Pipeline (tick minus nested spans, plus the response actions) and
/// policy self time of one ledger.
double pipeline_self(const Ledger& l) { return l.tick.self() + l.control.self(); }
double policy_self(const Ledger& l) {
  return l.on_cycle.self() + l.fetch_order.self() + l.callback.self();
}

void report_chips(const ChipTotals& t, JsonLine& out) {
  const Ledger& l = t.ledger;
  const double pipeline_s = pipeline_self(l);
  const double policy_s = policy_self(l);
  const double accounted =
      pipeline_s + policy_s + l.trace_at.self() + l.mem_tick.self();
  // Skip mode: the kernel's self time is what no span covers.
  const Ledger& k = t.skip_ledger;
  const double kernel_s = t.skip_harness_s - pipeline_self(k) - policy_self(k) -
                          k.trace_at.self() - k.mem_tick.self();
  out.num("kernel.ns_per_chip_cycle", 1e9 * ratio(t.skip_s, t.chip_cycles))
      .num("kernel.ns_per_committed_instr",
           1e9 * ratio(t.skip_s, count(t.committed)))
      .num("kernel.sleep_frac", ratio(t.skipped, t.core_cycles))
      .num("kernel.skip_gain", ratio(t.lock_s, t.skip_s))
      .num("kernel.committed_ipc", ratio(count(t.committed), t.chip_cycles))
      .num("kernel.self_s", kernel_s)
      .num("kernel.self_frac", ratio(kernel_s, t.skip_harness_s))
      .num("kernel.mem_frac", ratio(k.mem_tick.self(), t.skip_harness_s))
      .num("kernel.pipeline_frac",
           ratio(pipeline_self(k) + policy_self(k) + k.trace_at.self(),
                 t.skip_harness_s))
      .num("pipeline.self_s", pipeline_s)
      .num("pipeline.ns_per_tick", 1e9 * ratio(pipeline_s, count(l.tick.calls)))
      .num("pipeline.ticks", count(l.tick.calls))
      .num("pipeline.fetched", count(t.fetched))
      .num("pipeline.issued", count(t.issued))
      .num("pipeline.committed", count(t.committed))
      .num("pipeline.commit_per_fetch",
           ratio(count(t.committed), count(t.fetched)))
      .num("pipeline.policy_squashed", count(t.squashed))
      .num("policy.on_cycle_s", l.on_cycle.self())
      .num("policy.on_cycle_calls", count(l.on_cycle.calls))
      .num("policy.fetch_order_s", l.fetch_order.self())
      .num("policy.fetch_order_calls", count(l.fetch_order.calls))
      .num("policy.callback_s", l.callback.self())
      .num("policy.callbacks", count(l.callback.calls))
      .num("policy.flush_accuracy", ratio(count(t.on_miss), count(t.flushes)))
      .num("trace.at_s", l.trace_at.self())
      .num("trace.at_calls", count(l.trace_at.calls))
      .num("mem.tick_s", l.mem_tick.self())
      .num("mem.ns_per_tick",
           1e9 * ratio(l.mem_tick.self(), count(l.mem_tick.calls)))
      .num("mem.loads", count(t.loads))
      .num("mem.l2_hits", count(t.l2_hits))
      .num("mem.l2_misses", count(t.l2_misses))
      .num("mem.l2_hit_time_mean", ratio(t.l2_hit_time_sum, count(t.l2_hits)))
      .num("mem.dram_reads", count(t.dram_reads))
      .num("mem.dram_row_hit_frac",
           ratio(count(t.row_hits), count(t.dram_reads)))
      .num("tracing.harness_s", t.harness_s)
      .num("tracing.overhead_frac", ratio(t.harness_s, t.lock_s) - 1.0)
      .num("tracing.accounted_frac", ratio(accounted, t.harness_s));
}

/// Times make and capture; also counts snapshots whose re-capture after
/// make differs from the original bytes (reported, not a check: nothing in
/// the library promises that round trip).
void trace_snapshot(const Snapshots& snaps, JsonLine& out) {
  constexpr int kReps = 3;
  double capture_s = 0.0, make_s = 0.0, bytes = 0.0;
  std::uint64_t recapture_diffs = 0;
  for (const auto& [key, snap] : snaps) {
    bytes += count(snap.size());
    for (int r = 0; r < kReps; ++r) {
      auto t0 = Clock::now();
      const std::unique_ptr<CmpSimulator> sim = snapshot::make(snap);
      make_s += since(t0);
      t0 = Clock::now();
      const std::vector<std::uint8_t> again = snapshot::capture(*sim);
      capture_s += since(t0);
      if (r == 0 && again != snap) ++recapture_diffs;
    }
  }
  const double n = count(snaps.size());
  const double mb = ratio(bytes, n) / 1e6;
  const double per_capture = ratio(capture_s, n * kReps);
  const double per_make = ratio(make_s, n * kReps);
  out.num("snapshot.count", n)
      .num("snapshot.bytes", ratio(bytes, n))
      .num("snapshot.warm_set_bytes", bytes)
      .num("snapshot.capture_s", per_capture)
      .num("snapshot.make_s", per_make)
      .num("snapshot.capture_mb_per_s", ratio(mb, per_capture))
      .num("snapshot.make_mb_per_s", ratio(mb, per_make))
      .num("snapshot.recapture_diffs", count(recapture_diffs));
}

/// Every lookup goes through a fresh instance, so the per-instance memo
/// never answers it.
void trace_warmstore(const Snapshots& snaps, const fs::path& dir,
                     JsonLine& out, Checks& check) {
  const std::string store_dir = dir.string();
  WarmStore store(store_dir);
  double put_s = 0.0, lookup_s = 0.0;
  std::uint64_t hits = 0, misses = 0;
  for (const auto& [key, snap] : snaps) {
    {
      WarmStore fresh(store_dir);
      check(fresh.lookup(key) == nullptr, "warm store starts empty");
      misses += fresh.stats().misses;
    }
    auto bytes = std::make_shared<const std::vector<std::uint8_t>>(snap);
    auto t0 = Clock::now();
    store.put(key, std::move(bytes));
    put_s += since(t0);
    WarmStore fresh(store_dir);
    t0 = Clock::now();
    const auto got = fresh.lookup(key);
    lookup_s += since(t0);
    check(got != nullptr && *got == snap, "warm store lookup");
    hits += fresh.stats().hits;
  }
  const double n = count(snaps.size());
  out.num("warmstore.put_s", ratio(put_s, n))
      .num("warmstore.lookup_s", ratio(lookup_s, n))
      .num("warmstore.hits", count(hits))
      .num("warmstore.misses", count(misses))
      .num("warmstore.bytes_written", count(store.stats().bytes_written));
}

void trace_campaign(const ExperimentSpec& spec,
                    const std::vector<JobSpec>& jobs,
                    const std::vector<RunResult>& reference,
                    const fs::path& dir, JsonLine& out, Checks& check) {
  CampaignStore campaign = CampaignStore::create(dir.string(), spec);
  constexpr int kKeyReps = 20;
  auto t0 = Clock::now();
  for (int r = 0; r < kKeyReps; ++r)
    for (const JobSpec& j : jobs) (void)campaign::job_key(j);
  const double n = count(jobs.size());
  const double job_key_s = since(t0) / (kKeyReps * n);
  campaign.record_dispatched(jobs);
  const std::size_t done = std::min(jobs.size(), reference.size());
  double done_s = 0.0, cached_s = 0.0;
  for (std::size_t i = 0; i < done; ++i) {
    t0 = Clock::now();
    campaign.record_done(jobs[i], reference[i]);
    done_s += since(t0);
  }
  for (std::size_t i = 0; i < done; ++i) {
    t0 = Clock::now();
    const std::optional<RunResult> hit = campaign.cached(jobs[i]);
    cached_s += since(t0);
    check(hit && hit->metrics == reference[i].metrics, "campaign cache read");
  }
  // Journal layout (campaign.h): a 12-byte header, then 33-byte records.
  const fs::path journal = dir / "journal.wal";
  const std::uint64_t size = fs::exists(journal) ? fs::file_size(journal) : 0;
  out.num("campaign.job_key_s", job_key_s)
      .num("campaign.record_done_s", ratio(done_s, n))
      .num("campaign.cached_s", ratio(cached_s, n))
      .num("campaign.journal_records", count(size > 12 ? (size - 12) / 33 : 0))
      .num("campaign.cache_bytes", count(file_bytes(campaign.cache_dir(), "")));
}

/// `hot` pre-fills the worker run's warm store (the sampled-hot workload);
/// otherwise it starts empty.
int cmd_trace(const std::string& spec_path, const fs::path& dir, bool hot) {
  const std::string text = read_text(spec_path);
  fs::remove_all(dir);
  fs::create_directories(dir);
  JsonLine out;
  Checks check;

  trace_spec(text, out);
  const ExperimentSpec spec = ExperimentSpec::from_text(text);
  const std::vector<JobSpec> jobs = spec.expand();
  const std::map<std::uint64_t, JobSpec> parents = parents_of(jobs);
  const auto worker_runs = trace_backend(spec, parents, dir, hot, out);

  // The in-process serial reference every other path is checked against.
  const std::vector<RunResult> reference = run_reference(spec);
  for (const auto& results : worker_runs) {
    check(results.size() == reference.size(), "worker result count");
    for (std::size_t i = 0; i < std::min(results.size(), reference.size()); ++i)
      check(results[i].metrics == reference[i].metrics,
            "worker vs reference, job " + std::to_string(i));
  }
  trace_model(reference, out);

  // Chips for the kernel and the harness: the full-run jobs themselves, or
  // for a sampled spec one full-run chip per point (warm-up, then measure).
  // Snapshots: each full-run chip's final state, or the sampled spec's
  // warm parents (published in this process by the runs above).
  ChipTotals totals;
  Snapshots snaps;
  if (spec.mode == RunMode::FullRun) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SimMetrics* want =
          i < reference.size() ? &reference[i].metrics : nullptr;
      check(want != nullptr, "reference result for job " + std::to_string(i));
      snaps.emplace_back(warmstore::warm_key(jobs[i]),
                         trace_chip(jobs[i], want, totals, check));
    }
  } else {
    for (const auto& [key, warm] : parents) {
      JobSpec chip = warm;
      chip.warm_only = false;
      chip.parent_key = 0;
      chip.measure = spec.measure;
      (void)trace_chip(chip, nullptr, totals, check);
      const auto bytes = warmstore::recall(key);
      check(bytes != nullptr, "warm parent of " + warm.workload.name);
      if (bytes) snaps.emplace_back(key, *bytes);
    }
  }
  report_chips(totals, out);
  trace_snapshot(snaps, out);
  trace_warmstore(snaps, dir / "warmstore", out, check);
  trace_campaign(spec, jobs, reference, dir / "campaign", out, check);

  std::cout << JsonLine()
                   .num("attempted", count(check.attempted))
                   .num("failed", count(check.failed))
                   .raw("metrics", out.str())
                   .str()
            << '\n';
  return check.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "reference")
      return cmd_reference(args[1], args[2]);
    if (args.size() == 2 && args[0] == "setup") return cmd_setup(args[1]);
    if (args.size() == 4 && args[0] == "trace" &&
        (args[3] == "hot" || args[3] == "cold"))
      return cmd_trace(args[1], args[2], args[3] == "hot");
  } catch (const std::exception& e) {
    std::cerr << "specbench_probe: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: specbench_probe reference SPEC OUT_CSV\n"
               "       specbench_probe setup SPEC\n"
               "       specbench_probe trace SPEC WORKDIR hot|cold\n";
  return 2;
}
