// Executable memory for dynamically generated code.
//
// Mirrors what Vcode needs from the OS: a buffer native instructions are
// generated into that can then be executed "without reference to an external
// compiler or linker" (paper §4.3). W^X discipline: pages are writable
// during emission and switched to read+execute before use, once; a sealed
// page is never made writable again while its buffer lives.
//
// A conversion function is a few hundred bytes, so single-page buffers come
// from a process-wide pool of pre-faulted pages instead of one mmap (plus a
// first-touch fault and a munmap) each. Releasing a pooled buffer flips its
// page back to RW and zeroes it before the pool hands it out again, so no
// stale code stays executable. Buffers larger than a page map their own
// pages and unmap them on release.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/error.h"

namespace pbio::vcode {

/// Thread model: exclusively owned while writable (one thread emits and
/// seals); after make_executable() the pages are immutable and entry() may
/// be called from any thread — Context publishes sealed buffers inside
/// shared_ptr<const Conversion>, and the release/acquire in that handoff
/// orders the code bytes. The page pool behind single-page buffers is
/// shared by every thread (its own lock).
// thread-domain: any
class ExecBuffer {
 public:
  /// Reserve `capacity` bytes of page-aligned, zeroed, writable memory
  /// (rounded up to whole pages). Throws PbioError if the OS refuses.
  explicit ExecBuffer(std::size_t capacity);
  ~ExecBuffer();

  ExecBuffer(const ExecBuffer&) = delete;
  ExecBuffer& operator=(const ExecBuffer&) = delete;
  ExecBuffer(ExecBuffer&& other) noexcept;
  ExecBuffer& operator=(ExecBuffer&& other) noexcept;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }
  bool executable() const { return executable_; }

  /// Flip pages from RW to RX. Emission must be complete; the buffer stays
  /// executable until it is destroyed.
  void make_executable();

  /// View the buffer as a callable of type `Fn`. W^X enforcement: refuses
  /// to hand out a callable while the pages are still writable — the buffer
  /// must be sealed with make_executable() first.
  template <typename Fn>
  Fn entry() const {
    if (!executable_) {
      throw PbioError("ExecBuffer: entry() before make_executable()");
    }
    return reinterpret_cast<Fn>(const_cast<std::uint8_t*>(data_));
  }

 private:
  void release() noexcept;

  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
  bool executable_ = false;
};

/// Occupancy of the single-page pool: pages held by live buffers and pages
/// waiting (RW, zeroed) for the next buffer. Also exported as the obs
/// gauges vcode.exec.pages_live and vcode.exec.pages_pooled.
struct ExecPoolStats {
  std::size_t live = 0;
  std::size_t pooled = 0;
};
ExecPoolStats exec_pool_stats();

/// True if this build/host supports native code generation (x86-64 only).
bool jit_supported();

}  // namespace pbio::vcode
