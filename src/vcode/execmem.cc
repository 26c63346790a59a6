#include "vcode/execmem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "util/error.h"
#include "util/mutex.h"

namespace pbio::vcode {

namespace {

/// Pages mapped, and faulted in, per refill of the pool.
constexpr std::size_t kChunkPages = 16;
/// Released pages beyond this many are unmapped instead of pooled, which
/// bounds the pool by the peak number of live buffers plus this slack.
constexpr std::size_t kMaxPooled = 2 * kChunkPages;

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_to_pages(std::size_t n) {
  const std::size_t page = page_size();
  return (n + page - 1) / page * page;
}

/// The process-wide pool of single RW pages behind one-page ExecBuffers.
/// Every pooled page is writable, zeroed and mapped by no live buffer.
// thread-domain: any
class PagePool {
 public:
  /// Leaked: sealed buffers owned by static objects may be released during
  /// static destruction.
  static PagePool& instance() {
    static PagePool* const pool = new PagePool();
    return *pool;
  }

  /// A zeroed RW page for a new buffer.
  std::uint8_t* take() {
    MutexLock lock(mu_);
    if (nfree_ == 0) refill();
    ++live_;
    std::uint8_t* page = free_[--nfree_];
    publish();
    return page;
  }

  /// Take back `page` from a buffer being destroyed. A sealed page is made
  /// writable again only here, once no buffer refers to it, and is zeroed
  /// before the pool can hand it out. A page the pool has no room for is
  /// unmapped as it is.
  void give(std::uint8_t* page, bool executable) noexcept {
    const std::size_t size = page_size();
    bool reuse = has_room();
    if (reuse && executable) {
      reuse = ::mprotect(page, size, PROT_READ | PROT_WRITE) == 0;
    }
    if (reuse) std::memset(page, 0, size);
    {
      MutexLock lock(mu_);
      --live_;
      if (reuse && nfree_ < kMaxPooled) {
        free_[nfree_++] = page;
        page = nullptr;
      }
      publish();
    }
    if (page != nullptr) ::munmap(page, size);
  }

  ExecPoolStats stats() {
    MutexLock lock(mu_);
    return {live_, nfree_};
  }

 private:
  PagePool()
      : live_gauge_(obs::gauge("vcode.exec.pages_live")),
        pooled_gauge_(obs::gauge("vcode.exec.pages_pooled")) {}

  bool has_room() {
    MutexLock lock(mu_);
    return nfree_ < kMaxPooled;
  }

  /// Map a chunk of pre-faulted RW pages into the empty free list.
  void refill() PBIO_REQUIRES(mu_) {
    const std::size_t page = page_size();
    void* p = ::mmap(nullptr, kChunkPages * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw PbioError("ExecBuffer: mmap failed");
    auto* base = static_cast<std::uint8_t*>(p);
    for (std::size_t i = kChunkPages; i-- > 0;) {
      free_[nfree_++] = base + i * page;
    }
  }

  void publish() PBIO_REQUIRES(mu_) {
    obs::gauge_set(live_gauge_, live_);
    obs::gauge_set(pooled_gauge_, nfree_);
  }

  Mutex mu_;
  std::uint8_t* free_[kMaxPooled] PBIO_GUARDED_BY(mu_) = {};
  std::size_t nfree_ PBIO_GUARDED_BY(mu_) = 0;
  std::size_t live_ PBIO_GUARDED_BY(mu_) = 0;
  const obs::MetricId live_gauge_;
  const obs::MetricId pooled_gauge_;
};

}  // namespace

ExecBuffer::ExecBuffer(std::size_t capacity)
    : capacity_(round_to_pages(capacity)) {
  if (capacity_ == page_size()) {
    data_ = PagePool::instance().take();
    return;
  }
  void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw PbioError("ExecBuffer: mmap failed");
  }
  data_ = static_cast<std::uint8_t*>(p);
}

ExecBuffer::~ExecBuffer() { release(); }

void ExecBuffer::release() noexcept {
  if (data_ == nullptr) return;
  if (capacity_ == page_size()) {
    PagePool::instance().give(data_, executable_);
  } else {
    ::munmap(data_, capacity_);
  }
  data_ = nullptr;
}

ExecBuffer::ExecBuffer(ExecBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)),
      executable_(std::exchange(other.executable_, false)) {}

ExecBuffer& ExecBuffer::operator=(ExecBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    executable_ = std::exchange(other.executable_, false);
  }
  return *this;
}

void ExecBuffer::make_executable() {
  if (data_ == nullptr) throw PbioError("ExecBuffer: sealed after move");
  if (::mprotect(data_, capacity_, PROT_READ | PROT_EXEC) != 0) {
    throw PbioError("ExecBuffer: mprotect(RX) failed");
  }
  executable_ = true;
}

ExecPoolStats exec_pool_stats() { return PagePool::instance().stats(); }

bool jit_supported() {
#if defined(__x86_64__)
  return true;
#else
  return false;
#endif
}

}  // namespace pbio::vcode
