#include "pipeline/iq.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mflush {

// ---------------------------------------------------------------- IssueQueue

IssueQueue::IssueQueue(std::uint32_t capacity, std::size_t handles)
    : links_(handles), cap_(capacity) {
  ready_.reserve(capacity);
}

void IssueQueue::insert(UopHandle h) {
  if (h >= links_.size()) links_.resize(static_cast<std::size_t>(h) + 1);
  Link& l = links_[h];
  assert(!l.queued);
  l = Link{next_age_++, tail_, kNil, true, false};
  if (tail_ == kNil)
    head_ = h;
  else
    links_[tail_].next = h;
  tail_ = h;
  ++size_;
}

void IssueQueue::unlink(UopHandle h) noexcept {
  Link& l = links_[h];
  if (l.prev == kNil)
    head_ = l.next;
  else
    links_[l.prev].next = l.next;
  if (l.next == kNil)
    tail_ = l.prev;
  else
    links_[l.next].prev = l.prev;
  l.queued = false;
  --size_;
}

bool IssueQueue::remove(UopHandle h) {
  if (!contains(h)) return false;
  Link& l = links_[h];
  if (l.ready) {
    const auto it = std::lower_bound(
        ready_.begin(), ready_.end(), l.age,
        [](const Ready& r, std::uint64_t age) { return r.age < age; });
    assert(it != ready_.end() && it->h == h);
    ready_.erase(it);
    l.ready = false;
  }
  unlink(h);
  return true;
}

std::vector<UopHandle> IssueQueue::entries() const {
  std::vector<UopHandle> out;
  out.reserve(size_);
  for (UopHandle h = head_; h != kNil; h = links_[h].next) out.push_back(h);
  return out;
}

std::uint32_t IssueQueue::count_for(const UopPool& pool, ThreadId tid) const {
  std::uint32_t n = 0;
  for (UopHandle h = head_; h != kNil; h = links_[h].next)
    if (pool[h].tid == tid) ++n;
  return n;
}

void IssueQueue::make_ready(UopHandle h) {
  Link& l = links_[h];
  assert(l.queued && !l.ready);
  l.ready = true;
  // Usually the youngest entry (ready at dispatch): an append.
  if (ready_.empty() || ready_.back().age < l.age) {
    ready_.push_back({l.age, h});
    return;
  }
  const auto it = std::upper_bound(
      ready_.begin(), ready_.end(), l.age,
      [](std::uint64_t age, const Ready& r) { return age < r.age; });
  ready_.insert(it, {l.age, h});
}

void IssueQueue::pop_ready(std::size_t n, bool dequeue) {
  assert(n <= ready_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const UopHandle h = ready_[i].h;
    links_[h].ready = false;
    if (dequeue) unlink(h);
  }
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(n));
}

void IssueQueue::load(ArchiveReader& ar, std::size_t num_handles) {
  std::vector<UopHandle> hs;
  ar.get_vec(hs);
  if (hs.size() > cap_)
    throw std::runtime_error("snapshot issue queue exceeds its capacity");
  for (Link& l : links_) l = Link{};
  ready_.clear();
  head_ = tail_ = kNil;
  size_ = 0;
  next_age_ = 0;
  for (const UopHandle h : hs) {
    if (h >= num_handles || contains(h))
      throw std::runtime_error(
          "snapshot issue queue holds an invalid or repeated entry");
    insert(h);
  }
}

// --------------------------------------------------------------- WakeupTable

WakeupTable::WakeupTable(std::size_t num_regs, std::size_t handles)
    : head_(num_regs, kNil),
      next_(2 * handles, kNil),
      prev_(2 * handles, kNil),
      reg_(2 * handles, kNil),
      pending_(handles, 0) {}

void WakeupTable::begin(UopHandle h) {
  if (h >= pending_.size()) {
    const std::size_t n = static_cast<std::size_t>(h) + 1;
    next_.resize(2 * n, kNil);
    prev_.resize(2 * n, kNil);
    reg_.resize(2 * n, kNil);
    pending_.resize(n, 0);
  }
  assert(pending_[h] == 0);
}

void WakeupTable::wait(UopHandle h, std::uint32_t s, std::uint32_t reg) {
  const std::uint32_t node = 2 * h + s;
  assert(reg_[node] == kNil);
  reg_[node] = reg;
  prev_[node] = kNil;
  next_[node] = head_[reg];
  if (head_[reg] != kNil) prev_[head_[reg]] = node;
  head_[reg] = node;
  ++pending_[h];
}

void WakeupTable::unlink(std::uint32_t node) noexcept {
  const std::uint32_t reg = reg_[node];
  if (prev_[node] == kNil)
    head_[reg] = next_[node];
  else
    next_[prev_[node]] = next_[node];
  if (next_[node] != kNil) prev_[next_[node]] = prev_[node];
  reg_[node] = kNil;
}

void WakeupTable::cancel(UopHandle h) noexcept {
  if (h >= pending_.size() || pending_[h] == 0) return;
  for (std::uint32_t s = 0; s < 2; ++s)
    if (reg_[2 * h + s] != kNil) unlink(2 * h + s);
  pending_[h] = 0;
}

void WakeupTable::clear() {
  std::fill(head_.begin(), head_.end(), kNil);
  std::fill(reg_.begin(), reg_.end(), kNil);
  std::fill(pending_.begin(), pending_.end(), 0);
}

}  // namespace mflush
