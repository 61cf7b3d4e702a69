// A counter with exactly one writing thread and any number of readers.
//
// When only one thread ever writes a counter, an increment needs no
// lock-prefixed read-modify-write: the writer loads its own last value and
// stores the next one, both relaxed. On x86 that is a plain load, add and
// store instead of a `lock xadd`, which is a full barrier that drains the
// writer's store buffer. Readers on other threads load it relaxed: they see
// some value the writer stored, never a torn one, and because all stores to
// one atomic are totally ordered, successive loads of a counter that only
// grows never go backwards.
//
// The price is that a second writer would lose updates, so every
// declaration states its one writer. Writing may move to another thread
// only across a happens-before edge, such as a join followed by a thread
// start on a runtime restart.
#ifndef PSP_SRC_COMMON_SINGLE_WRITER_H_
#define PSP_SRC_COMMON_SINGLE_WRITER_H_

#include <atomic>

namespace psp {

template <typename T>
class SingleWriterCounter {
 public:
  SingleWriterCounter() = default;
  SingleWriterCounter(const SingleWriterCounter&) = delete;
  SingleWriterCounter& operator=(const SingleWriterCounter&) = delete;

  // Writer thread only. Returns the new value.
  T Add(T n) {
    const T next = value_.load(std::memory_order_relaxed) + n;
    value_.store(next, std::memory_order_relaxed);
    return next;
  }
  // Writer thread only. Returns the new value.
  T Sub(T n) {
    const T next = value_.load(std::memory_order_relaxed) - n;
    value_.store(next, std::memory_order_relaxed);
    return next;
  }
  // Writer thread only.
  void Store(T v) { value_.store(v, std::memory_order_relaxed); }

  // Any thread.
  T Load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<T> value_{0};
};

}  // namespace psp

#endif  // PSP_SRC_COMMON_SINGLE_WRITER_H_
