// Aliasing-aware checkpointing of lin::Rc / lin::Arc — the heart of §5.
//
// "Aliasing, when present, is explicit in [the] object's type signature:
// only objects wrapped in reference counted types (Rc, Arc) can be aliased.
// The Rc and Arc wrappers therefore provide a convenient place to deal with
// aliasing with minimal modifications to user code and without expensive
// lookups."
//
// In kLinearMark mode the control block's epoch mark decides copy-vs-
// back-reference in O(1); kAddressSet pays a hash per node (the
// conventional approach); kNone skips dedup entirely and demonstrates the
// Figure-3 pathology: duplicated payloads and, worse, *lost sharing* after
// restore.
#ifndef LINSYS_SRC_CKPT_RC_CKPT_H_
#define LINSYS_SRC_CKPT_RC_CKPT_H_

#include <any>
#include <cstdint>
#include <vector>

#include "src/ckpt/traits.h"
#include "src/lin/arc.h"
#include "src/lin/mutex.h"
#include "src/lin/rc.h"
#include "src/util/panic.h"

namespace ckpt {
namespace internal {

enum class RcTag : std::uint8_t {
  kNull = 0,    // empty handle
  kInline = 1,  // payload without identity (kNone mode: sharing lost)
  kNew = 2,     // first visit: id + payload
  kRef = 3,     // repeat visit: id only
};

// Shared save logic for Rc and Arc. `Handle` must expose has_value(), Id(),
// CheckpointMark(), operator*.
template <typename Handle, typename T>
void SaveShared(const Handle& handle, Writer& w) {
  if (!handle.has_value()) {
    w.WritePod(RcTag::kNull);
    return;
  }
  switch (w.mode()) {
    case DedupMode::kNone: {
      w.WritePod(RcTag::kInline);
      Traits<T>::Save(*handle, w);
      w.CountPayloadCopy();
      return;
    }
    case DedupMode::kAddressSet: {
      std::uint64_t id = 0;
      if (w.LookupOrRecord(handle.Id(), &id)) {
        w.WritePod(RcTag::kRef);
        w.WritePod(id);
        w.CountBackRef();
      } else {
        w.WritePod(RcTag::kNew);
        w.WritePod(id);
        Traits<T>::Save(*handle, w);
        w.CountPayloadCopy();
      }
      return;
    }
    case DedupMode::kLinearMark: {
      // The mark records the next id; only a first visit takes it.
      std::uint64_t existing = 0;
      if (handle.CheckpointMark(w.epoch(), w.NextRcId(), &existing)) {
        w.WritePod(RcTag::kNew);
        w.WritePod(w.AllocRcId());
        Traits<T>::Save(*handle, w);
        w.CountPayloadCopy();
      } else {
        w.WritePod(RcTag::kRef);
        w.WritePod(existing);
        w.CountBackRef();
      }
      return;
    }
  }
}

template <typename Handle, typename T>
Handle LoadShared(Reader& r) {
  const auto tag = r.ReadPod<RcTag>();
  switch (tag) {
    case RcTag::kNull:
      return Handle();
    case RcTag::kInline:
      // kNone snapshots cannot reconstruct sharing: every alias becomes an
      // independent object (Figure 3b).
      return Handle::Make(Traits<T>::Load(r));
    case RcTag::kNew: {
      // Ids are dense in stream order. The slot is reserved before the
      // payload loads: nodes nested in it take the later ids.
      std::vector<std::any>& table = r.rc_table();
      LINSYS_ASSERT(r.ReadPod<std::uint64_t>() == table.size() + 1,
                    "corrupt snapshot: copy-id out of order");
      const std::size_t slot = table.size();
      table.emplace_back();
      Handle handle = Handle::Make(Traits<T>::Load(r));
      table[slot] = handle;  // std::any copy of the handle
      return handle;
    }
    case RcTag::kRef: {
      const auto id = r.ReadPod<std::uint64_t>();
      std::vector<std::any>& table = r.rc_table();
      LINSYS_ASSERT(id >= 1 && id <= table.size() && table[id - 1].has_value(),
                    "snapshot back-reference to unknown node");
      const Handle* handle = std::any_cast<Handle>(&table[id - 1]);
      LINSYS_ASSERT(handle != nullptr,
                    "snapshot back-reference to a node of another type");
      return *handle;
    }
  }
  util::Panic(util::PanicKind::kAssertFailed, "corrupt snapshot: bad Rc tag");
}

}  // namespace internal

template <typename T>
struct Traits<lin::Rc<T>> {
  static void Save(const lin::Rc<T>& rc, Writer& w) {
    internal::SaveShared<lin::Rc<T>, T>(rc, w);
  }
  static lin::Rc<T> Load(Reader& r) {
    return internal::LoadShared<lin::Rc<T>, T>(r);
  }
};

template <typename T>
struct Traits<lin::Arc<T>> {
  static void Save(const lin::Arc<T>& arc, Writer& w) {
    internal::SaveShared<lin::Arc<T>, T>(arc, w);
  }
  static lin::Arc<T> Load(Reader& r) {
    return internal::LoadShared<lin::Arc<T>, T>(r);
  }
};

// Mutex-wrapped state: checkpoint takes the lock, so each object's snapshot
// is internally consistent even while mutator threads run (§5 "efficient
// and thread-safe"). Locking for a read does not logically mutate.
template <typename T>
struct Traits<lin::Mutex<T>> {
  static void Save(const lin::Mutex<T>& mutex, Writer& w) {
    auto guard = const_cast<lin::Mutex<T>&>(mutex).Lock();
    Traits<T>::Save(*guard, w);
  }
  static lin::Mutex<T> Load(Reader& r) {
    return lin::Mutex<T>(Traits<T>::Load(r));
  }
};

}  // namespace ckpt

#endif  // LINSYS_SRC_CKPT_RC_CKPT_H_
