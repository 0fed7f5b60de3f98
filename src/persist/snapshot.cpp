#include "persist/snapshot.h"

#include <cerrno>
#include <cstring>
#include <new>

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SKIPWEB_HAVE_MMAP 1
#endif

namespace skipweb::persist {

namespace {

[[noreturn]] void fail(const std::string& what) { throw error("snapshot: " + what); }

std::uint64_t rotl64(std::uint64_t v, int s) { return (v << s) | (v >> (64 - s)); }

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t round1(std::uint64_t acc, std::uint64_t lane) {
  return rotl64(acc + lane * kP2, 31) * kP1;
}

// fsync the stream's file (its stdio buffer already flushed).
bool sync_file(std::FILE* f) {
#if defined(SKIPWEB_HAVE_MMAP)
  return ::fsync(::fileno(f)) == 0;
#else
  (void)f;
  return true;
#endif
}

// fsync the directory holding `path`, so a rename into it is durable.
bool sync_parent_dir(const std::string& path) {
#if defined(SKIPWEB_HAVE_MMAP)
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0                ? "/"
                                                      : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

}  // namespace

// The XXH64 construction: four interleaved 64-bit lanes over 32-byte
// stripes, merged and avalanched. Byte-for-byte the reference algorithm, so
// the constants' published avalanche analysis applies.
std::uint64_t checksum64(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  std::uint64_t h;
  if (bytes >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = round1(v1, read_u64(p));
      v2 = round1(v2, read_u64(p + 8));
      v3 = round1(v3, read_u64(p + 16));
      v4 = round1(v4, read_u64(p + 24));
      p += 32;
    } while (p <= limit);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = (h ^ round1(0, v1)) * kP1 + kP4;
    h = (h ^ round1(0, v2)) * kP1 + kP4;
    h = (h ^ round1(0, v3)) * kP1 + kP4;
    h = (h ^ round1(0, v4)) * kP1 + kP4;
  } else {
    h = seed + kP5;
  }
  h += static_cast<std::uint64_t>(bytes);
  while (p + 8 <= end) {
    h = rotl64(h ^ round1(0, read_u64(p)), 27) * kP1 + kP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h = rotl64(h ^ (static_cast<std::uint64_t>(read_u32(p)) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  while (p < end) {
    h = rotl64(h ^ (*p * kP5), 11) * kP1;
    ++p;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// --- writer ------------------------------------------------------------------

writer::writer(const std::string& path) : path_(path), tmp_path_(path + ".tmp") {
  f_ = std::fopen(tmp_path_.c_str(), "wb");
  if (f_ == nullptr) {
    fail("cannot open '" + tmp_path_ + "' for writing: " + std::strerror(errno));
  }
  const file_header placeholder{};
  try {
    put(&placeholder, sizeof(placeholder));
  } catch (...) {
    std::fclose(f_);  // no destructor runs for a throwing constructor
    std::remove(tmp_path_.c_str());
    throw;
  }
}

writer::~writer() {
  if (f_ != nullptr) std::fclose(f_);
  // An unfinished save leaves no half-written file behind — and never
  // touches the snapshot already at path_.
  if (!finished_) std::remove(tmp_path_.c_str());
}

void writer::put(const void* data, std::size_t bytes) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, f_) != bytes) {
    fail("write failed for '" + tmp_path_ + "': " + std::strerror(errno));
  }
  offset_ += bytes;
}

void writer::add(std::string_view name, const void* data, std::size_t bytes) {
  if (f_ == nullptr) fail("add() on a finished or failed writer");
  section_entry e;
  e.id = section_id(name);
  for (const auto& prev : table_) {
    if (prev.id == e.id) fail("duplicate section name '" + std::string(name) + "'");
  }
  static constexpr char zeros[section_align] = {};
  const std::size_t pad = (section_align - offset_ % section_align) % section_align;
  put(zeros, pad);
  e.offset = offset_;
  e.bytes = bytes;
  e.checksum = checksum64(data, bytes);
  put(data, bytes);
  table_.push_back(e);
}

void writer::finish() {
  if (f_ == nullptr) fail("finish() on a finished or failed writer");
  file_header h;
  h.section_count = table_.size();
  h.table_offset = offset_;
  h.table_bytes = table_.size() * sizeof(section_entry);
  h.table_checksum = checksum64(table_.data(), h.table_bytes);
  put(table_.data(), h.table_bytes);
  h.file_bytes = offset_;
  h.header_checksum = checksum64(&h, offsetof(file_header, header_checksum));
  if (std::fseek(f_, 0, SEEK_SET) != 0) fail("seek failed: " + std::string(std::strerror(errno)));
  if (std::fwrite(&h, 1, sizeof(h), f_) != sizeof(h)) {
    fail("header patch failed: " + std::string(std::strerror(errno)));
  }
  // Durable replace: the bytes reach the disk before the rename makes them
  // the snapshot, and the rename reaches the disk before finish() returns.
  // A crash or error at any point leaves the previous snapshot intact.
  const bool flushed = std::fflush(f_) == 0 && sync_file(f_);
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  if (!flushed || !closed) {
    fail("flush/close failed for '" + tmp_path_ + "': " + std::strerror(errno));
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    fail("cannot rename '" + tmp_path_ + "' to '" + path_ + "': " + std::strerror(errno));
  }
  finished_ = true;
  if (!sync_parent_dir(path_)) {
    fail("cannot sync the directory of '" + path_ + "': " + std::strerror(errno));
  }
}

// --- reader ------------------------------------------------------------------

namespace {

// Whole file into a 64-byte-aligned owned buffer (load mode).
std::shared_ptr<const void> read_all(const std::string& path, std::size_t& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("cannot open '" + path + "': " + std::strerror(errno));
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (len < 0) {
    std::fclose(f);
    fail("cannot size '" + path + "'");
  }
  bytes = static_cast<std::size_t>(len);
  void* buf = ::operator new(bytes > 0 ? bytes : 1, std::align_val_t{section_align});
  if (bytes > 0 && std::fread(buf, 1, bytes, f) != bytes) {
    ::operator delete(buf, std::align_val_t{section_align});
    std::fclose(f);
    fail("short read on '" + path + "'");
  }
  std::fclose(f);
  return {buf, [](const void* p) {
            ::operator delete(const_cast<void*>(p), std::align_val_t{section_align});
          }};
}

// Read-only private mapping of the file (map mode).
std::shared_ptr<const void> map_all(const std::string& path, std::size_t& bytes) {
#if defined(SKIPWEB_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open '" + path + "': " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("cannot stat '" + path + "'");
  }
  bytes = static_cast<std::size_t>(st.st_size);
  if (bytes == 0) {
    ::close(fd);
    fail("'" + path + "' is empty");
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) fail("mmap of '" + path + "' failed: " + std::strerror(errno));
  const std::size_t len = bytes;
  return {p, [len](const void* q) { ::munmap(const_cast<void*>(q), len); }};
#else
  return read_all(path, bytes);  // no mmap on this platform: owned fallback
#endif
}

}  // namespace

reader::reader(const std::string& path, restore_mode mode) : mode_(mode) {
  blob_ = mode == restore_mode::map ? map_all(path, bytes_) : read_all(path, bytes_);
  base_ = static_cast<const std::byte*>(blob_.get());
  if (bytes_ < sizeof(file_header)) fail("'" + path + "' is too short to be a snapshot");
  file_header h;
  std::memcpy(&h, base_, sizeof(h));
  if (h.magic != snapshot_magic) fail("'" + path + "' is not a snapshot (bad magic)");
  if (h.endian != snapshot_endian_probe) {
    fail("'" + path + "' was written on an incompatible (big-endian) host");
  }
  if (h.version != snapshot_version) {
    fail("'" + path + "' has unsupported snapshot version " + std::to_string(h.version));
  }
  if (h.header_checksum != checksum64(&h, offsetof(file_header, header_checksum))) {
    fail("'" + path + "': header checksum mismatch (corrupt or truncated)");
  }
  if (h.file_bytes > bytes_ || h.table_offset + h.table_bytes > h.file_bytes ||
      h.table_bytes != h.section_count * sizeof(section_entry)) {
    fail("'" + path + "': header geometry inconsistent (corrupt or truncated)");
  }
  const auto* tbl = base_ + h.table_offset;
  if (h.table_checksum != checksum64(tbl, h.table_bytes)) {
    fail("'" + path + "': section table checksum mismatch (corrupt)");
  }
  sections_.reserve(h.section_count);
  for (std::uint64_t i = 0; i < h.section_count; ++i) {
    section_entry e;
    std::memcpy(&e, tbl + i * sizeof(section_entry), sizeof(e));
    if (e.offset % section_align != 0 || e.offset + e.bytes > h.table_offset) {
      fail("'" + path + "': section table entry out of bounds (corrupt)");
    }
    // Owned read: every payload is resident anyway, so verify it now. The
    // mmap path skips this by design (see snapshot.h) — metadata is still
    // fully verified above.
    if (mode == restore_mode::load && e.checksum != checksum64(base_ + e.offset, e.bytes)) {
      fail("'" + path + "': section payload checksum mismatch (corrupt)");
    }
    sections_.emplace(e.id, e);
  }
}

bool reader::has(std::string_view name) const {
  return sections_.find(section_id(name)) != sections_.end();
}

reader::view reader::section(std::string_view name) const {
  const auto it = sections_.find(section_id(name));
  if (it == sections_.end()) fail("missing section '" + std::string(name) + "'");
  return {base_ + it->second.offset, static_cast<std::size_t>(it->second.bytes)};
}

std::uint64_t reader::u64(std::string_view name) const {
  const view v = section(name);
  if (v.bytes != sizeof(std::uint64_t)) fail("section '" + std::string(name) + "' is not a u64");
  std::uint64_t out;
  std::memcpy(&out, v.data, sizeof(out));
  return out;
}

std::string reader::str(std::string_view name) const {
  const view v = section(name);
  return std::string(static_cast<const char*>(v.data), v.bytes);
}

std::string reader::bad_size_message(std::string_view name, std::size_t elem,
                                     std::size_t bytes) {
  return "snapshot: section '" + std::string(name) + "' has " + std::to_string(bytes) +
         " bytes, not a multiple of the expected " + std::to_string(elem) + "-byte records";
}

}  // namespace skipweb::persist
