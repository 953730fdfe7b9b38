// Bounded blocking queue connecting cluster threads.

#ifndef DSGM_COMMON_QUEUE_H_
#define DSGM_COMMON_QUEUE_H_

#include <algorithm>
#include <deque>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dsgm {

namespace queue_internal {

// Process-wide backpressure instruments, bumped once per blocking EPISODE
// (not per wait-loop iteration) and only on the cold paths — the
// uncontended fast path never touches them.
inline Counter* ProducerBlocks() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("common.queue.producer_blocks");
  return c;
}
inline Counter* ConsumerBlocks() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("common.queue.consumer_blocks");
  return c;
}

}  // namespace queue_internal

/// Weight of one queued item against a queue's weight bound. A type whose
/// items carry a payload of varying size overloads this in its own
/// namespace (found by argument-dependent lookup); everything else weighs
/// nothing and is bounded by item count alone.
template <typename T>
constexpr size_t QueueWeight(const T&) {
  return 0;
}

/// Weight bound of BoundedQueue and FlowQueue. An UpdateBundle weighs its
/// CounterReport count (net/wire.h), so this caps the reports a
/// site->coordinator queue holds at 640Ki (10 MiB). Bundles of one event
/// each (74 reports on ALARM in exact mode) still reach an 8192-item bound
/// first; bundles coalesced over many events reach this one.
constexpr size_t kQueueWeightCapacity = size_t{640} << 10;

/// Multi-producer multi-consumer bounded FIFO with close semantics:
/// after Close(), pushes fail and pops drain the remaining items then fail.
///
/// Two bounds apply: `capacity` items, and kQueueWeightCapacity total
/// QueueWeight. The queue is full once either is reached; a push into a
/// queue that is not full is accepted whatever its weight, so one item
/// heavier than the bound still passes once the queue drains below it.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity = 4096) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false iff the queue is closed.
  bool Push(T item) DSGM_EXCLUDES(mutex_) {
    {
      MutexLock lock(&mutex_);
      if (!closed_ && FullLocked()) {
        queue_internal::ProducerBlocks()->Increment();
        while (!closed_ && FullLocked()) not_full_.Wait(&lock);
      }
      if (closed_) return false;
      weight_ += QueueWeight(item);
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Pushes a whole batch, chunking against the bounds: the queue never
  /// grows past `capacity` (nor past kQueueWeightCapacity by more than one
  /// item), and a batch larger than the remaining room waits for consumers
  /// between chunks. Items of one batch stay contiguous and in order, but
  /// other producers may interleave between chunks. Returns false iff
  /// closed (a close mid-batch drops the unpushed remainder; already-pushed
  /// chunks stay poppable).
  bool PushBatch(std::vector<T>&& batch) DSGM_EXCLUDES(mutex_) {
    if (batch.empty()) return true;
    MutexLock lock(&mutex_);
    size_t pushed = 0;
    while (pushed < batch.size()) {
      if (!closed_ && FullLocked()) {
        queue_internal::ProducerBlocks()->Increment();
        while (!closed_ && FullLocked()) not_full_.Wait(&lock);
      }
      if (closed_) return false;
      while (pushed < batch.size() && !FullLocked()) {
        weight_ += QueueWeight(batch[pushed]);
        items_.push_back(std::move(batch[pushed++]));
      }
      // One waiter per chunk suffices: with multiple consumers parked, the
      // woken one re-arms the next (PopBatch/TryPopBatch notify not_empty_
      // again whenever items remain after their take), so MPMC liveness is
      // preserved by wakeup chaining instead of a notify_all storm on every
      // capacity-sized chunk.
      not_empty_.NotifyOne();
    }
    batch.clear();
    return true;
  }

  /// Blocks until at least one item or close. Appends up to `max_items` to
  /// `out` and returns the number appended (0 means closed and drained).
  size_t PopBatch(std::vector<T>* out, size_t max_items)
      DSGM_EXCLUDES(mutex_) {
    Take take;
    {
      MutexLock lock(&mutex_);
      if (!closed_ && items_.empty()) {
        queue_internal::ConsumerBlocks()->Increment();
        while (!closed_ && items_.empty()) not_empty_.Wait(&lock);
      }
      take = TakeLocked(out, max_items);
    }
    NotifyAfterTake(take);
    return take.count;
  }

  /// Non-blocking variant: appends whatever is immediately available.
  size_t TryPopBatch(std::vector<T>* out, size_t max_items)
      DSGM_EXCLUDES(mutex_) {
    Take take;
    {
      MutexLock lock(&mutex_);
      take = TakeLocked(out, max_items);
    }
    NotifyAfterTake(take);
    return take.count;
  }

  void Close() DSGM_EXCLUDES(mutex_) {
    {
      MutexLock lock(&mutex_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const DSGM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return closed_;
  }

  /// Momentary item count (for tests and introspection; racy by nature).
  size_t size() const DSGM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return items_.size();
  }

 private:
  struct Take {
    size_t count = 0;
    bool items_remain = false;
  };

  bool FullLocked() const DSGM_REQUIRES(mutex_) {
    return items_.size() >= capacity_ || weight_ >= kQueueWeightCapacity;
  }

  Take TakeLocked(std::vector<T>* out, size_t max_items)
      DSGM_REQUIRES(mutex_) {
    Take take;
    take.count = std::min(max_items, items_.size());
    for (size_t i = 0; i < take.count; ++i) {
      weight_ -= QueueWeight(items_.front());
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    take.items_remain = !items_.empty();
    return take;
  }

  void NotifyAfterTake(const Take& take) {
    if (take.count == 0) return;
    not_full_.NotifyAll();
    // The chaining half of PushBatch's single-notify: if this consumer
    // left items behind, re-arm one more parked consumer.
    if (take.items_remain) not_empty_.NotifyOne();
  }

  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ DSGM_GUARDED_BY(mutex_);
  size_t capacity_;
  size_t weight_ DSGM_GUARDED_BY(mutex_) = 0;  // Sum of queued QueueWeight.
  bool closed_ DSGM_GUARDED_BY(mutex_) = false;
};

}  // namespace dsgm

#endif  // DSGM_COMMON_QUEUE_H_
