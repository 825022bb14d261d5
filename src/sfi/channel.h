// Cross-domain channel: zero-copy transfer of uniquely owned objects.
//
// This is the Singularity-exchange-heap idea done with linear types alone
// (§2): Send() consumes a lin::Own<T>, so the sending domain provably cannot
// observe or mutate the message afterwards — any attempt is a use-after-move
// panic. No copy, no tagging, no per-dereference validation: the handoff is
// a pointer move.
//
// The channel is MPMC and may block; it is trusted runtime code, so it uses
// std::mutex/condition_variable directly rather than lin::Mutex (which has
// no condvar integration by design — domains should not block on each other
// except at explicit channel boundaries).
//
// Loss accounting contract: the channel never destroys a message silently.
// A refused Send hands the still-owned message back in SendResult::rejected,
// so the caller decides whether the loss is counted, retried, or rerouted.
#ifndef LINSYS_SRC_SFI_CHANNEL_H_
#define LINSYS_SRC_SFI_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "src/lin/own.h"
#include "src/util/fault_injector.h"

namespace sfi {

// Tri-state receive outcome. kEmpty means "nothing *right now*" — the
// channel is still open and a later receive may succeed; kClosed means the
// channel is closed AND drained, so no receive will ever succeed again. A
// polling consumer terminates on kClosed and keeps polling on kEmpty.
enum class RecvStatus { kValue, kEmpty, kClosed };

template <typename T>
struct TryRecvResult {
  RecvStatus status = RecvStatus::kEmpty;
  std::optional<lin::Own<T>> value;  // engaged iff status == kValue

  bool has_value() const { return status == RecvStatus::kValue; }
  explicit operator bool() const { return has_value(); }
  lin::Own<T>& operator*() { return *value; }
  const lin::Own<T>& operator*() const { return *value; }
};

// Outcome of Send. On refusal (channel already closed, or a blocked bounded
// Send woken by Close()) the unsent message comes back in `rejected` with
// ownership intact — it was never enqueued and never destroyed.
template <typename T>
struct SendResult {
  bool ok = false;
  std::optional<lin::Own<T>> rejected;

  explicit operator bool() const { return ok; }
};

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity = 0) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Transfers ownership into the channel. Blocks while a bounded channel is
  // full. If the channel is closed — whether at entry or while blocked on a
  // full queue — the message is NOT destroyed: it is returned to the caller
  // in SendResult::rejected, still uniquely owned and intact.
  SendResult<T> Send(lin::Own<T> message) {
    // Fault point fires *before* the lock and the enqueue: an injected panic
    // leaves the channel untouched and `message` (still uniquely owned by
    // this frame) is released by the unwind — no half-sent state.
    LINSYS_FAULT_POINT("channel.send");
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return closed_ || capacity_ == 0 || queue_.size() < capacity_;
    });
    if (closed_) {
      lock.unlock();
      return SendResult<T>{false, std::move(message)};
    }
    queue_.push_back(std::move(message));
    depth_.store(queue_.size(), std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
    return SendResult<T>{true, std::nullopt};
  }

  // Blocks until a message or close; nullopt only after close-and-drained.
  std::optional<lin::Own<T>> Recv() {
    // Same discipline as Send: fire before taking the lock, so a panicking
    // receiver never dequeues (the message stays for the next Recv).
    LINSYS_FAULT_POINT("channel.recv");
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) {
      return std::nullopt;
    }
    return PopLocked(lock);
  }

  // Non-blocking tri-state receive (see RecvStatus). Does not fire the
  // channel.recv fault point, so a drain loop cannot alias with the blocking
  // path's every-Nth fault schedule.
  TryRecvResult<T> TryRecv() {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return TryRecvResult<T>{closed_ ? RecvStatus::kClosed : RecvStatus::kEmpty,
                              std::nullopt};
    }
    return TryRecvResult<T>{RecvStatus::kValue, PopLocked(lock)};
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // Advisory queue depth: a lock-free snapshot maintained by the locked
  // push/pop paths. A poller may read this at high frequency; taking the
  // queue mutex for a momentary depth would make every poll contend with the
  // very consumers it is sizing up.
  std::size_t size() const { return depth_.load(std::memory_order_relaxed); }

 private:
  lin::Own<T> PopLocked(std::unique_lock<std::mutex>& lock) {
    lin::Own<T> out = std::move(queue_.front());
    queue_.pop_front();
    depth_.store(queue_.size(), std::memory_order_relaxed);
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<lin::Own<T>> queue_;
  std::atomic<std::size_t> depth_{0};  // == queue_.size(), see size()
  std::size_t capacity_;  // 0 = unbounded
  bool closed_ = false;
};

}  // namespace sfi

#endif  // LINSYS_SRC_SFI_CHANNEL_H_
