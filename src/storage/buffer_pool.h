#ifndef MPFDB_STORAGE_BUFFER_POOL_H_
#define MPFDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/paged_file.h"
#include "util/status.h"

namespace mpfdb {

// An LRU buffer pool over one PagedFile: a fixed number of in-memory frames,
// pin/unpin protocol, dirty-page writeback on eviction. The hit/miss
// statistics are what bench/ablate_buffer_pool measures.
class BufferPool {
 public:
  // `file` must outlive the pool. capacity_pages >= 1.
  BufferPool(PagedFile* file, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns a pinned pointer to the page's frame. The pointer stays valid
  // until the matching Unpin. Fails if every frame is pinned.
  StatusOr<std::byte*> FetchPage(uint32_t page_id);
  // Releases a pin; `dirty` marks the frame for writeback.
  Status Unpin(uint32_t page_id, bool dirty);

  // Writes back every dirty frame (pages stay cached).
  Status FlushAll();

  size_t capacity() const { return frames_.size(); }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  struct Frame {
    std::unique_ptr<std::byte[]> data;
    uint32_t page_id = 0;
    bool occupied = false;
    bool dirty = false;
    int pin_count = 0;
    uint64_t last_used = 0;
  };

  // Picks a victim frame (unoccupied, or LRU among unpinned), writing back
  // if dirty. Returns the frame index or an error if all frames are pinned.
  StatusOr<size_t> FindVictim();

  PagedFile* file_;
  std::vector<Frame> frames_;
  std::unordered_map<uint32_t, size_t> page_to_frame_;
  uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_BUFFER_POOL_H_
