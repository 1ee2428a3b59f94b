#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

/// Minimal binary serialization for snapshot/fork checkpointing.
///
/// The archive is a flat little-endian byte stream with no per-field
/// framing: writer and reader must agree on the exact field sequence, which
/// is version-gated by the snapshot header (sim/snapshot.h). Only
/// trivially-copyable value types are serialized directly; containers are
/// length-prefixed. Nothing here allocates on the read path beyond the
/// containers being filled.
namespace mflush {

/// FNV-1a over a byte span — the content-key hash (job, warm-store and
/// campaign keys) and the trailing checksum of the small archive formats
/// (experiment specs, worker job and result files, journals, wire frames).
[[nodiscard]] inline std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Word-at-a-time 64-bit hash: the trailing checksum of the multi-megabyte
/// formats (snapshots, warm-store entries), where byte-at-a-time FNV-1a
/// dominated restore time. Four independent multiply-rotate lanes consume
/// 32 bytes per step; the tail is folded in 8-byte words (the last one
/// zero-padded) and the length is mixed in, so truncation or appended
/// zeros change the hash. Words are read in host byte order, like the
/// archive itself. Not a content key: keys stay on fnv1a.
[[nodiscard]] inline std::uint64_t word_hash(
    std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t k3 = 0x165667B19E3779F9ull;
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const auto round = [&](std::uint64_t acc, std::uint64_t w) {
    return rotl(acc + w * k2, 31) * k1;
  };
  const auto load = [](const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  };
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t a0 = k1 + k2, a1 = k2, a2 = 0, a3 = 0 - k1;
  for (; n >= 32; p += 32, n -= 32) {
    a0 = round(a0, load(p));
    a1 = round(a1, load(p + 8));
    a2 = round(a2, load(p + 16));
    a3 = round(a3, load(p + 24));
  }
  std::uint64_t h = rotl(a0, 1) + rotl(a1, 7) + rotl(a2, 12) + rotl(a3, 18) +
                    bytes.size() * k3;
  for (; n >= 8; p += 8, n -= 8) h = rotl(h ^ round(0, load(p)), 27) * k1 + k3;
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = rotl(h ^ round(0, w), 27) * k1 + k3;
  }
  h ^= h >> 33;
  h *= k2;
  h ^= h >> 29;
  h *= k3;
  h ^= h >> 32;
  return h;
}

class ArchiveWriter {
 public:
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "field-wise save required for non-trivial types");
    put_bytes(&v, sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    put_bytes(s.data(), s.size());
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    if (!v.empty()) put_bytes(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
  void put_deque(const std::deque<T>& d) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(d.size());
    for (const T& v : d) put(v);
  }

  /// Entries are written in ascending key order: an unordered_map's
  /// iteration order depends on its insertion history, and a restored map
  /// has a different history from the one that was saved, so walking it
  /// directly would make capture(restore(b)) != b.
  template <typename K, typename V>
  void put_map(const std::unordered_map<K, V>& m) {
    static_assert(std::is_trivially_copyable_v<K> &&
                  std::is_trivially_copyable_v<V>);
    std::vector<const std::pair<const K, V>*> sorted;
    sorted.reserve(m.size());
    for (const auto& e : m) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    put<std::uint64_t>(m.size());
    for (const auto* e : sorted) {
      put(e->first);
      put(e->second);
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ArchiveReader {
 public:
  explicit ArchiveReader(std::span<const std::uint8_t> bytes)
      : data_(bytes) {}

  void get_bytes(void* p, std::size_t n) {
    if (n > data_.size() - pos_)
      throw std::runtime_error("snapshot archive truncated");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    get_bytes(&v, sizeof(T));
    return v;
  }

  [[nodiscard]] std::string get_string() {
    const auto n = checked_size(get<std::uint64_t>(), 1);
    std::string s(n, '\0');
    get_bytes(s.data(), n);
    return s;
  }

  template <typename T>
  void get_vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = checked_size(get<std::uint64_t>(), sizeof(T));
    v.resize(n);
    if (n != 0) get_bytes(v.data(), n * sizeof(T));
  }

  template <typename T>
  void get_deque(std::deque<T>& d) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = checked_size(get<std::uint64_t>(), sizeof(T));
    d.clear();
    for (std::size_t i = 0; i < n; ++i) d.push_back(get<T>());
  }

  template <typename K, typename V>
  void get_map(std::unordered_map<K, V>& m) {
    const auto n = checked_size(get<std::uint64_t>(), sizeof(K) + sizeof(V));
    m.clear();
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      K k = get<K>();
      m.emplace(std::move(k), get<V>());
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  /// Guard length prefixes against truncated/corrupt archives before any
  /// resize: a bogus 2^60 length must throw, not allocate.
  [[nodiscard]] std::size_t checked_size(std::uint64_t n,
                                         std::size_t elem_size) const {
    if (n > (data_.size() - pos_) / elem_size)
      throw std::runtime_error("snapshot archive truncated");
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mflush
