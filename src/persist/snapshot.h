#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "persist/pod_array.h"

namespace skipweb::persist {

// Single-file arena snapshots (DESIGN.md §13).
//
// File layout (all integers little-endian, the only byte order the format
// is defined for — the header records a probe word and the reader refuses a
// mismatch rather than swapping):
//
//   [ file_header : 64 bytes ]
//   [ section payloads, each starting on a 64-byte boundary, zero-padded ]
//   [ section table : section_count * sizeof(section_entry), at table_offset ]
//
// A section is an opaque byte blob addressed by NAME; the table stores the
// 64-bit checksum64 of the name (collisions across a file's few dozen names
// are vanishingly unlikely and detected at write time), the payload offset /
// length, and the payload's checksum64. The header carries the checksum of
// the table and of itself, so any torn or bit-flipped metadata is detected
// in both restore modes; payload checksums are verified eagerly by the
// owned-read mode and skipped by the mmap mode (hashing a multi-GB mapping
// would fault every page and forfeit the instant restart — the trade is
// documented in DESIGN.md §13).
//
// Writing streams: header placeholder, sections as they arrive (checksummed
// on the way through), table, then one seek back to patch the header. Peak
// writer memory is one section table, never a buffered payload. The stream
// goes to `path + ".tmp"`; finish() fsyncs it, renames it over `path` and
// fsyncs the directory, so re-saving never destroys the last good snapshot
// (an abandoned or failed save removes only the .tmp) and a reader mapping
// the old file keeps its inode.

inline constexpr std::uint64_t snapshot_magic = 0x003150414E535753ull;  // "SWSNAP1\0"
inline constexpr std::uint32_t snapshot_version = 1;
inline constexpr std::uint32_t snapshot_endian_probe = 0x01020304u;
inline constexpr std::size_t section_align = 64;

// xxhash64-style mixer over an arbitrary byte range: 64-bit lanes, strong
// avalanche, no table — quality far beyond CRC at memcpy-bound speed, and no
// third-party dependency.
[[nodiscard]] std::uint64_t checksum64(const void* data, std::size_t bytes,
                                       std::uint64_t seed = 0);

[[nodiscard]] inline std::uint64_t section_id(std::string_view name) {
  return checksum64(name.data(), name.size(), /*seed=*/0x5357u);
}

struct file_header {
  std::uint64_t magic = snapshot_magic;
  std::uint32_t version = snapshot_version;
  std::uint32_t endian = snapshot_endian_probe;
  std::uint64_t section_count = 0;
  std::uint64_t table_offset = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t table_checksum = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t header_checksum = 0;  // checksum64 of all preceding fields
};
static_assert(sizeof(file_header) == 64);

struct section_entry {
  std::uint64_t id = 0;  // section_id(name)
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(section_entry) == 32);

// Thrown on any I/O failure, malformed file, version/endianness mismatch or
// checksum disagreement — a snapshot problem is always a clean error, never
// UB (the corruption tests flip bytes and expect exactly this type).
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

// Streams one snapshot file. Sections are written in call order; finish()
// seals the file and publishes it at `path` (without it nothing is
// published and any snapshot already at `path` is untouched).
class writer {
 public:
  explicit writer(const std::string& path);
  ~writer();
  writer(const writer&) = delete;
  writer& operator=(const writer&) = delete;

  // Append one named section. Names must be unique within the file.
  void add(std::string_view name, const void* data, std::size_t bytes);

  void add_u64(std::string_view name, std::uint64_t v) { add(name, &v, sizeof(v)); }
  void add_string(std::string_view name, std::string_view s) { add(name, s.data(), s.size()); }
  template <typename T>
  void add_array(std::string_view name, const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    add(name, p, n * sizeof(T));
  }
  template <typename T, typename A>
  void add_vector(std::string_view name, const std::vector<T, A>& v) {
    add_array(name, v.data(), v.size());
  }
  template <typename T>
  void add_pods(std::string_view name, const pod_array<T>& v) {
    add_array(name, v.data(), v.size());
  }

  // Write the section table, patch the header, flush and close.
  void finish();

 private:
  void put(const void* data, std::size_t bytes);

  std::string path_;
  std::string tmp_path_;  // path_ + ".tmp": where the stream goes until finish()
  std::FILE* f_ = nullptr;
  std::uint64_t offset_ = 0;
  std::vector<section_entry> table_;
  bool finished_ = false;
};

enum class restore_mode {
  load,  // read the whole file into an owned buffer; verify every checksum
  map,   // mmap read-only; verify header + table only (payloads fault lazily)
};

// Opens and validates one snapshot. Section accessors hand out views into
// the backing blob (owned buffer or mapping); pods<T>() wraps a view in a
// borrowed pod_array that shares the blob's lifetime, so a caller can hold
// arrays long after the reader itself is gone.
class reader {
 public:
  reader(const std::string& path, restore_mode mode);

  [[nodiscard]] restore_mode mode() const { return mode_; }
  [[nodiscard]] bool has(std::string_view name) const;

  struct view {
    const void* data = nullptr;
    std::size_t bytes = 0;
  };
  // Throws persist::error when the section is absent.
  [[nodiscard]] view section(std::string_view name) const;

  [[nodiscard]] std::uint64_t u64(std::string_view name) const;
  [[nodiscard]] std::string str(std::string_view name) const;

  template <typename T>
  [[nodiscard]] const T* array(std::string_view name, std::size_t& n) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const view v = section(name);
    if (v.bytes % sizeof(T) != 0) throw error(bad_size_message(name, sizeof(T), v.bytes));
    n = v.bytes / sizeof(T);
    return static_cast<const T*>(v.data);
  }
  template <typename T>
  [[nodiscard]] std::vector<T> vec(std::string_view name) const {
    std::size_t n = 0;
    const T* p = array<T>(name, n);
    return std::vector<T>(p, p + n);
  }
  // The zero-copy accessor: a borrowed pod_array over the blob. Mutation
  // copies on first write (pod_array.h); in load mode the blob is an owned
  // heap buffer, in map mode the file mapping — same semantics either way.
  template <typename T>
  [[nodiscard]] pod_array<T> pods(std::string_view name) const {
    std::size_t n = 0;
    const T* p = array<T>(name, n);
    return pod_array<T>::borrow(blob_, p, n);
  }

 private:
  static std::string bad_size_message(std::string_view name, std::size_t elem,
                                      std::size_t bytes);

  restore_mode mode_;
  std::shared_ptr<const void> blob_;
  const std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::unordered_map<std::uint64_t, section_entry> sections_;
};

}  // namespace skipweb::persist
