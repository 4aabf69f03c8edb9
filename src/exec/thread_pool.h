#ifndef MPFDB_EXEC_THREAD_POOL_H_
#define MPFDB_EXEC_THREAD_POOL_H_

#include <cstddef>

namespace mpfdb::exec {

// Inert: every query runs on the calling thread, and this type holds no
// threads. It remains only because the end-to-end benchmark (e2ebench/)
// still constructs one and hands it to QueryContext::set_thread_pool, which
// ignores it. ROADMAP.md item 2, which moves e2ebench onto the public API,
// deletes it.
class ThreadPool {
 public:
  explicit ThreadPool(size_t /*num_threads*/) {}
};

}  // namespace mpfdb::exec

#endif  // MPFDB_EXEC_THREAD_POOL_H_
