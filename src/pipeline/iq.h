#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "pipeline/uop.h"

namespace mflush {

/// One issue queue (int, fp, or ld/st), shared among the core's contexts,
/// plus its ready index.
///
/// Entries form an intrusive doubly linked list in insertion (age) order
/// over per-handle link slots, so insert and remove are O(1). Each entry
/// gets an age stamp at insert; the ready index is the subset of entries
/// the core has marked ready (every source available, not yet issued),
/// kept sorted oldest-first by stamp. Issue select walks the ready index
/// from the front and pops the prefix it issued.
///
/// Only the entry list is serialized. Stamps and the ready index are
/// derived state: load() renumbers stamps in list order and leaves the
/// index empty for the owner to rebuild from register ready bits.
class IssueQueue {
 public:
  /// `handles` sizes the per-handle link slots up front (the uop pool's
  /// capacity); a larger handle grows them on insert.
  explicit IssueQueue(std::uint32_t capacity, std::size_t handles = 0);

  [[nodiscard]] bool full() const noexcept { return size_ >= cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }

  /// Append `h` as the youngest entry.
  void insert(UopHandle h);

  /// Remove a specific entry (issued or squashed), dropping it from the
  /// ready index too; returns true if it was queued.
  bool remove(UopHandle h);

  /// Oldest-first copy of the entries (snapshots, tests, diagnostics).
  [[nodiscard]] std::vector<UopHandle> entries() const;

  /// Count of entries belonging to `tid` (ICOUNT bookkeeping checks).
  [[nodiscard]] std::uint32_t count_for(const UopPool& pool,
                                        ThreadId tid) const;

  struct Ready {
    std::uint64_t age;
    UopHandle h;
  };

  /// Enter queued entry `h` into the ready index at its age position.
  void make_ready(UopHandle h);

  /// The ready index, oldest first.
  [[nodiscard]] const std::vector<Ready>& ready() const noexcept {
    return ready_;
  }

  /// The `n` oldest ready entries issued: they leave the ready index and,
  /// when `dequeue`, the queue as well (int/fp entries leave at issue;
  /// loads keep their LSQ entry until the data returns).
  void pop_ready(std::size_t n, bool dequeue);

  void save(ArchiveWriter& ar) const { ar.put_vec(entries()); }
  /// Throws on an entry that is not one of `num_handles` pool handles, a
  /// repeated entry, or more entries than the capacity.
  void load(ArchiveReader& ar, std::size_t num_handles);

 private:
  static constexpr UopHandle kNil = kNoUop;

  struct Link {
    std::uint64_t age = 0;
    UopHandle prev = kNil;
    UopHandle next = kNil;
    bool queued = false;
    bool ready = false;
  };

  [[nodiscard]] bool contains(UopHandle h) const noexcept {
    return h < links_.size() && links_[h].queued;
  }
  void unlink(UopHandle h) noexcept;

  // lint: transient — derived: links/stamps are rebuilt by load()
  std::vector<Link> links_;
  // lint: transient — derived: rebuilt by the owning core after load()
  std::vector<Ready> ready_;
  UopHandle head_ = kNil;    // lint: transient — derived from the list
  UopHandle tail_ = kNil;    // lint: transient — derived from the list
  std::uint32_t size_ = 0;   // lint: transient — derived from the list
  std::uint64_t next_age_ = 0;  // lint: transient — renumbered by load()
  std::uint32_t cap_;  // lint: transient — ctor capacity
};

/// Consumers waiting on not-yet-written physical registers.
///
/// Each unissued uop has up to two source slots; a slot whose register is
/// not ready is linked into that register's waiter list (intrusive, over
/// flat per-slot arrays — no per-register allocation). The uop's pending
/// count is its number of linked slots. Writing a register unlinks its
/// whole list and reports every uop whose last pending source it was.
/// Register ids are flat over both files: int registers first, then fp.
class WakeupTable {
 public:
  WakeupTable(std::size_t num_regs, std::size_t handles);

  /// Start tracking `h` (a fresh dispatch): no pending sources yet.
  void begin(UopHandle h);
  /// Source slot `s` of `h` waits on register `reg`.
  void wait(UopHandle h, std::uint32_t s, std::uint32_t reg);
  [[nodiscard]] std::uint32_t pending(UopHandle h) const noexcept {
    return pending_[h];
  }
  /// Drop every wait of `h` (squash).
  void cancel(UopHandle h) noexcept;
  /// Forget everything (before a rebuild).
  void clear();

  /// Register `reg` was written: call `on_ready(h)` for every waiter whose
  /// last pending source it was.
  template <class F>
  void wake(std::uint32_t reg, F&& on_ready) {
    std::uint32_t node = head_[reg];
    head_[reg] = kNil;
    while (node != kNil) {
      const std::uint32_t next = next_[node];
      reg_[node] = kNil;
      const UopHandle h = node >> 1;
      if (--pending_[h] == 0) on_ready(h);
      node = next;
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;

  void unlink(std::uint32_t node) noexcept;

  std::vector<std::uint32_t> head_;  ///< per register: first waiting slot
  // Per source slot (node = handle * 2 + slot).
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> reg_;  ///< kNil when the slot is not linked
  std::vector<std::uint8_t> pending_;  ///< per handle
};

}  // namespace mflush
