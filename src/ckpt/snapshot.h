// Snapshot byte stream: the Writer/Reader pair every Checkpointable type
// serializes through, plus the dedup-mode switch that implements both the
// paper's design (§5) and the conventional baselines it argues against.
//
//   kLinearMark — the paper: aliased nodes (lin::Rc/Arc) carry an epoch
//     mark; the first visit copies, later visits emit an O(1)
//     back-reference. No visited-set, no hashing.
//   kAddressSet — the conventional fix: "record the address of each object
//     reached during the traversal and check newly encountered objects
//     against the recorded set", paying hash lookups and extra memory.
//   kNone — naive traversal: no dedup at all; shared rules are copied once
//     per alias and sharing is LOST on restore (Figure 3b).
#ifndef LINSYS_SRC_CKPT_SNAPSHOT_H_
#define LINSYS_SRC_CKPT_SNAPSHOT_H_

#include <any>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/util/panic.h"

namespace ckpt {

enum class DedupMode : std::uint8_t {
  kLinearMark,
  kAddressSet,
  kNone,
};

struct Snapshot {
  std::vector<std::uint8_t> bytes;

  std::size_t size_bytes() const { return bytes.size(); }
};

// Monotone epoch source; each checkpoint gets a fresh epoch so stale marks
// from earlier checkpoints read as unvisited (no flag-clearing pass).
std::uint64_t NextEpoch();

class Writer {
 public:
  Writer(DedupMode mode, std::uint64_t epoch) : mode_(mode), epoch_(epoch) {}

  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  void WriteBytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }

  DedupMode mode() const { return mode_; }
  std::uint64_t epoch() const { return epoch_; }
  // The id the next first visit takes; AllocRcId takes it. Only first
  // visits take one, in both dedup modes, so ids run 1, 2, 3, ... in stream
  // order and the Reader indexes its restore table by them.
  std::uint64_t NextRcId() const { return next_rc_id_; }
  std::uint64_t AllocRcId() { return next_rc_id_++; }

  // kAddressSet mode: the conventional visited-set. Returns the id under
  // which `addr` was already serialized, or records it with a fresh id.
  bool LookupOrRecord(const void* addr, std::uint64_t* id) {
    auto [it, inserted] = visited_.try_emplace(addr, 0);
    if (inserted) {
      it->second = AllocRcId();
      *id = it->second;
      return false;  // not seen before
    }
    *id = it->second;
    return true;
  }

  // Traversal statistics — what the Figure-3 experiment reports.
  void CountPayloadCopy() { ++payload_copies_; }
  void CountBackRef() { ++back_refs_; }
  std::uint64_t payload_copies() const { return payload_copies_; }
  std::uint64_t back_refs() const { return back_refs_; }

  Snapshot Finish() { return Snapshot{std::move(bytes_)}; }

 private:
  DedupMode mode_;
  std::uint64_t epoch_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t next_rc_id_ = 1;
  std::unordered_map<const void*, std::uint64_t> visited_;
  std::uint64_t payload_copies_ = 0;
  std::uint64_t back_refs_ = 0;
};

class Reader {
 public:
  // Reads `bytes` in place; they must outlive the Reader.
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  explicit Reader(const Snapshot& snapshot) : Reader(snapshot.bytes) {}

  // Length checks compare against remaining() rather than computing
  // pos_ + len, which a corrupt 64-bit length would wrap.
  template <typename T>
  T ReadPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    LINSYS_ASSERT(sizeof(T) <= remaining(), "snapshot truncated or corrupt");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void ReadBytes(void* out, std::size_t len) {
    LINSYS_ASSERT(len <= remaining(), "snapshot truncated or corrupt");
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  // Unread bytes. Every encoded element takes at least one byte, so a
  // decoded element count may never exceed this — the bound Traits::Load
  // puts on every allocation it sizes from the input (a reserve of T
  // elements takes at most remaining() / sizeof(T)).
  std::size_t remaining() const { return bytes_.size() - pos_; }

  // Shared-node reconstruction: restored lin::Rc/lin::Arc handles in
  // std::any, copy-id i at index i - 1. A node's slot is reserved when its
  // payload starts loading and filled once the payload is built.
  std::vector<std::any>& rc_table() { return rc_table_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  std::vector<std::any> rc_table_;
};

}  // namespace ckpt

#endif  // LINSYS_SRC_CKPT_SNAPSHOT_H_
