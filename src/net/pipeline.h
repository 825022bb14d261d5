// NetBricks-style packet pipeline, in two flavours:
//
//   * Pipeline — stages chained by plain (virtual) function calls, batches
//     handed over by move. This is NetBricks as published: linear types stop
//     two stages from touching a batch at once, but there is no fault
//     containment ("NetBricks does not support fault containment or
//     recovery", §3).
//   * IsolatedPipeline — every stage lives in its own protection domain and
//     is invoked through an rref. Faults are contained: a panic in stage k
//     returns an error, fails only that domain, and the stage factory lets
//     recovery rebuild it transparently. This is the paper's contribution,
//     and the delta between the two flavours is exactly what Figure 2
//     measures.
//
// On top of containment, IsolatedPipeline carries the *supervision state*
// the paper leaves to "the management plane": per-stage fault/recovery
// accounting, crash-loop quarantine with a degradation policy, and MTTR
// samples (cycles from fault observation to the first successful
// post-recovery batch). The policy decisions (when to retry, when to
// quarantine) live in the caller — net::Runtime's supervisor — but the
// mechanism and the bookkeeping live here so standalone pipelines get the
// same behaviour.
#ifndef LINSYS_SRC_NET_PIPELINE_H_
#define LINSYS_SRC_NET_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/net/batch.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sfi/manager.h"
#include "src/sfi/rref.h"
#include "src/util/cycles.h"
#include "src/util/result.h"
#include "src/util/stats.h"

namespace net {

// A pipeline stage. Takes the batch by value (consuming the caller's
// binding) and returns it — possibly with packets dropped or rewritten.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual PacketBatch Process(PacketBatch batch) = 0;
  virtual std::string_view name() const = 0;
};

// Opt-in checkpoint surface for stateful operators (§5 applied to the live
// runtime): an operator that also derives CkptStage serializes its flow
// state through the ckpt:: traits and can be restored onto a freshly built
// replica. Stateless operators simply don't implement it — a checkpoint
// records their absence and a restore rebuilds them from the factory.
class CkptStage {
 public:
  virtual ~CkptStage() = default;
  virtual void SaveState(ckpt::Writer& w) const = 0;
  virtual void LoadState(ckpt::Reader& r) = 0;
};

// One stage's slice of a runtime checkpoint. `bytes` is the operator's
// CkptStage serialization (empty when the stage is stateless or was
// unreachable); `quarantined` round-trips the degraded state so a restored
// runtime does not resurrect a stage the supervisor gave up on.
struct StageImage {
  std::string name;
  std::uint8_t present = 0;      // bytes hold a CkptStage serialization
  std::uint8_t quarantined = 0;  // stage was quarantined at capture time
  std::string bytes;
  LINSYS_CHECKPOINT_FIELDS(name, present, quarantined, bytes)
};

// What a quarantined stage does to traffic. Chosen per stage: a firewall
// should fail closed (kFailFast or kDrop), a telemetry tap can be bypassed
// (kPassthrough).
enum class DegradePolicy : std::uint8_t {
  kDrop,         // the batch is dropped; Run() returns Ok(empty)
  kPassthrough,  // the batch bypasses the dead stage
  kFailFast,     // Run() returns CallError::kQuarantined to the caller
};

inline std::string_view DegradePolicyName(DegradePolicy p) {
  switch (p) {
    case DegradePolicy::kDrop:
      return "drop";
    case DegradePolicy::kPassthrough:
      return "passthrough";
    case DegradePolicy::kFailFast:
      return "fail-fast";
  }
  return "unknown";
}

// Snapshot of one stage's supervision state (IsolatedPipeline::health).
struct StageHealth {
  std::string name;
  DegradePolicy policy = DegradePolicy::kDrop;
  bool quarantined = false;
  std::uint64_t faults = 0;            // panics observed at this stage
  std::uint64_t recoveries = 0;        // completed domain recoveries
  std::uint64_t recovery_panics = 0;   // recovery fns that panicked
  std::uint64_t quarantine_drop_pkts = 0;  // packets dropped by kDrop
  std::uint64_t passthrough_batches = 0;   // batches bypassing (kPassthrough)
  std::uint64_t failfast_batches = 0;      // batches rejected (kFailFast)
  // Recovery attempts since the last batch that made it through this stage.
  // This is the crash-loop detector: a transient fault resets it on the
  // first good batch, a deterministic fault only grows it.
  std::size_t attempts_since_success = 0;
  util::Samples mttr_cycles;  // fault observation -> first good batch
  // Quarantine probation. A quarantined stage counts dispatched batches
  // down through `cooldown_left`; at zero the supervisor's ProbeQuarantined
  // rebuilds the stage in a fresh domain and marks it probing. The first
  // batch through decides: success un-quarantines, a fault re-quarantines
  // with the cool-down doubled.
  bool probing = false;            // next batch through is the probe
  std::uint64_t cooldown = 0;      // current cool-down budget (batches)
  std::uint64_t cooldown_left = 0; // batches until probe-eligible
  std::uint64_t probes = 0;        // probe batches granted
  std::uint64_t unquarantines = 0; // probes that brought the stage back
  std::uint64_t requarantines = 0; // probes that failed (cool-down doubled)
};

// Direct-call pipeline (the NetBricks baseline).
class Pipeline {
 public:
  void AddStage(std::unique_ptr<Operator> op) {
    stages_.push_back(std::move(op));
  }

  // Runs the batch to completion through all stages. A panic in any stage
  // propagates: there is no containment in this flavour.
  PacketBatch Run(PacketBatch batch) {
    for (auto& stage : stages_) {
      batch = stage->Process(std::move(batch));
    }
    return batch;
  }

  std::size_t length() const { return stages_.size(); }
  Operator& stage(std::size_t i) { return *stages_[i]; }

 private:
  std::vector<std::unique_ptr<Operator>> stages_;
};

// SFI pipeline: protection domains with remote invocations between them
// (§3: "we use our SFI library to isolate every pipeline component in a
// separate protection domain, replacing function calls with remote
// invocations").
//
// Since the schedule IR (src/net/schedule.h) the domain↔stage mapping is a
// *schedule decision*: the pipeline is a sequence of fusion groups, each
// group one protection domain holding one or more member operators executed
// back-to-back in a single rref call. The default (AddStage alone) is the
// interpreted schedule — every group a singleton, byte-for-byte the old
// one-domain-per-stage behaviour. ApplySchedule() re-partitions the members
// per a resolved schedule. Supervision stays per-*member*: each member keeps
// its own StageHealth, profiler attribution, checkpoint image, and degrade
// policy. Fault attribution inside a fused group uses the group's
// last-entered-member index (written immediately before each member's
// Process inside the domain, so an unwind pins the culprit); when a member
// crash-loops into quarantine it is *split out* of its group into a
// singleton — the group's innocent neighbours re-form around it in fresh
// domains and keep running. Invariant: a quarantined member is always a
// singleton group.
//
// Threading: Run() and the supervision methods (RecoverFailedStages,
// ApplySchedule, health) mutate the same per-stage state and must be
// serialized by the caller — net::Runtime uses its per-worker mutex;
// single-threaded users need nothing.
class IsolatedPipeline {
 public:
  using StageFactory = std::function<std::unique_ptr<Operator>()>;

  explicit IsolatedPipeline(sfi::DomainManager* mgr) : mgr_(mgr) {}

  // Creates a singleton fusion group for the stage: a domain, the operator
  // instantiated inside it, and a recovery function that re-creates the
  // group's operators from their factories and re-publishes the rref —
  // making recovery transparent to Run().
  void AddStage(std::string stage_name, StageFactory factory,
                DegradePolicy degrade = DegradePolicy::kDrop);

  // Re-partitions the stages into fusion groups. `partition` must be the
  // stage indices 0..length()-1 in order, split into contiguous runs — the
  // output shape of net::ResolveSchedule. Call after the AddStage calls and
  // before traffic: fused members are rebuilt from their factories (operator
  // state does not survive re-grouping), and no member may be quarantined,
  // probing, or Failed. Groups that match the current shape are reused
  // untouched; superseded domains are retired.
  void ApplySchedule(const std::vector<std::vector<std::size_t>>& partition);

  // Current group shape as flat stage indices — e.g. {{0,1},{2}} for a
  // 3-stage pipeline with the first two stages fused.
  std::vector<std::vector<std::size_t>> GroupShape() const {
    std::vector<std::vector<std::size_t>> shape;
    shape.reserve(groups_.size());
    for (const auto& g : groups_) {
      shape.emplace_back();
      for (const Member* m : g->members) {
        shape.back().push_back(m->index);
      }
    }
    return shape;
  }

  std::size_t group_count() const { return groups_.size(); }

  // Runs the batch through all fusion groups — one remote invocation per
  // group, member operators executed back-to-back inside the group's
  // domain. On a fault the in-flight batch is lost (its buffers are
  // reclaimed during unwinding, as in the paper, where the caller receives
  // an error code) and the error is reported; the group's domain is left
  // Failed for the supervisor, with the fault attributed to the member the
  // domain last entered. A quarantined stage (always a singleton group)
  // applies its DegradePolicy instead of being invoked.
  util::Result<PacketBatch, sfi::CallError> Run(PacketBatch batch) {
    // Probation cool-downs are dispatch-driven and tick for *every*
    // quarantined stage, up front, exactly once per batch — a kDrop or
    // kFailFast stage ending the walk early must not stall the clocks of
    // quarantined stages behind it (they would never become probe-eligible).
    for (auto& mp : members_) {
      if (mp->health.quarantined && mp->health.cooldown_left > 0) {
        mp->health.cooldown_left--;
      }
    }
    for (auto& gp : groups_) {
      Group& group = *gp;
      Member& head = *group.members.front();
      if (head.health.quarantined) {
        // Quarantined members are singleton groups (split-on-fault), so the
        // group-level policy IS the member's policy.
        switch (head.health.policy) {
          case DegradePolicy::kPassthrough:
            head.health.passthrough_batches++;
            continue;  // batch flows on to the next group untouched
          case DegradePolicy::kDrop:
            head.health.quarantine_drop_pkts += batch.size();
            // Batch destroyed here, on the calling thread (which owns the
            // buffers' pool in the Runtime arrangement).
            return PacketBatch();
          case DegradePolicy::kFailFast:
            head.health.failfast_batches++;
            return util::Err(sfi::CallError::kQuarantined);
        }
      }
      auto result = group.rref.Call(
          [b = std::move(batch), &group](FusedOps& ops) mutable {
            PacketBatch cur = std::move(b);
            for (std::size_t m = 0; m < ops.ops.size(); ++m) {
              // Attribution cursor: written before entry, so a panic's
              // unwind leaves it pointing at the member that faulted.
              group.last_entered = m;
              // Refine the profiler's execute phase with the *member* name:
              // samples landing inside a fused loop still fold as
              // worker;execute;<stage>, one frame per member. The name lives
              // in StageHealth (stable std::string behind a stable Member*)
              // so the const char* the signal handler reads stays valid.
              obs::ScopedProfilerStage prof_stage(
                  group.members[m]->health.name.c_str());
              cur = ops.ops[m]->Process(std::move(cur));
            }
            return cur;
          },
          "process");
      if (!result.ok()) {
        Member& culprit = *group.members[std::min(
            group.last_entered, group.members.size() - 1)];
        if (result.error() == sfi::CallError::kFault) {
          culprit.health.faults++;
          if (culprit.fault_since == 0) {
            // First fault of this incident: MTTR clock starts now.
            culprit.fault_since = util::CycleEnd();
          }
        }
        if (culprit.health.probing) {
          // The probe batch faulted: back into quarantine, cool-down
          // doubled, so a deterministic crasher probes ever more rarely.
          // Clamped from below to the configured initial cool-down: a stage
          // quarantined before SetProbation armed still has cooldown 0, and
          // 0 * 2 == 0 would otherwise pin it probe-eligible on every
          // supervisor pass (a probe storm).
          culprit.health.probing = false;
          culprit.health.requarantines++;
          culprit.health.cooldown = std::clamp<std::uint64_t>(
              culprit.health.cooldown * 2, probation_cooldown_,
              std::max(probation_cooldown_, kProbationCooldownMax));
          Quarantine(culprit);
          if (probe_observer_) {
            probe_observer_(false);
          }
        }
        return util::Err(result.error());
      }
      // The whole group ran: every member saw the batch.
      for (Member* mp : group.members) {
        Member& member = *mp;
        if (member.health.probing) {
          // Probe survived: the stage is back for good (until it
          // crash-loops again), and the cool-down resets to its configured
          // initial value.
          member.health.probing = false;
          member.health.unquarantines++;
          member.health.cooldown = probation_cooldown_;
          member.health.attempts_since_success = 0;
          LINSYS_TRACE_INSTANT("runtime.unquarantine");
          if (probe_observer_) {
            probe_observer_(true);
          }
        }
        if (member.fault_since != 0) {
          // First batch through after a fault: the incident is over.
          member.health.mttr_cycles.Add(
              static_cast<double>(util::CycleEnd() - member.fault_since));
          member.fault_since = 0;
          member.health.attempts_since_success = 0;
        }
      }
      batch = std::move(result).value();
    }
    return batch;
  }

  // Attempts recovery of every failed, non-quarantined group; returns how
  // many completed. A recovery function that panics is contained: the group
  // stays Failed, the panic is counted, and the next call retries it. When
  // `max_attempts` > 0, a *member* that accumulates that many recovery
  // attempts without an intervening successful batch is quarantined instead
  // of retried: it is split out of its group into a retired singleton (Run()
  // applies its DegradePolicy from then on) while any co-members re-form
  // around it in fresh domains and keep serving. Attempts and recoveries are
  // charged to the member the failed domain last entered. max_attempts == 0
  // retries forever.
  std::size_t RecoverFailedStages(std::size_t max_attempts = 0) {
    std::size_t recovered = 0;
    // Snapshot first: quarantining a fused member splits its group, which
    // edits groups_ under us.
    std::vector<Group*> failed;
    for (auto& gp : groups_) {
      if (!gp->members.front()->health.quarantined &&
          gp->domain->state() == sfi::DomainState::kFailed) {
        failed.push_back(gp.get());
      }
    }
    for (Group* g : failed) {
      Member& culprit =
          *g->members[std::min(g->last_entered, g->members.size() - 1)];
      if (max_attempts > 0 &&
          culprit.health.attempts_since_success >= max_attempts) {
        Quarantine(culprit);
        continue;
      }
      culprit.health.attempts_since_success++;
      if (g->domain->Recover()) {
        culprit.health.recoveries++;
        ++recovered;
      } else {
        culprit.health.recovery_panics++;
      }
    }
    return recovered;
  }

  // Failed, non-quarantined groups still waiting on a (re)recovery.
  std::size_t FailedStages() const {
    std::size_t n = 0;
    for (const auto& gp : groups_) {
      if (!gp->members.front()->health.quarantined &&
          gp->domain->state() == sfi::DomainState::kFailed) {
        ++n;
      }
    }
    return n;
  }

  std::size_t QuarantinedStages() const {
    std::size_t n = 0;
    for (const auto& mp : members_) {
      n += mp->health.quarantined ? 1 : 0;
    }
    return n;
  }

  // Total packets dropped by quarantined kDrop stages — cheap (no Samples
  // copy), so callers can take a before/after delta around Run() to
  // attribute an empty result to quarantine rather than legitimate
  // filtering.
  std::uint64_t QuarantineDropPkts() const {
    std::uint64_t n = 0;
    for (const auto& mp : members_) {
      n += mp->health.quarantine_drop_pkts;
    }
    return n;
  }

  // Cap on a doubled probation cool-down (never below the initial one).
  static constexpr std::uint64_t kProbationCooldownMax = 1 << 20;

  // Arms quarantine probation: after `cooldown_batches` degraded batches, a
  // quarantined stage gets one probe batch through a freshly built domain;
  // failure re-quarantines with the cool-down doubled (capped at
  // kProbationCooldownMax). 0 disables probation (quarantine stays
  // terminal).
  void SetProbation(std::uint64_t cooldown_batches) {
    probation_cooldown_ = cooldown_batches;
    // Armed mid-quarantine: a stage quarantined while probation was disabled
    // carries a zero cool-down base. Left at zero it is probe-eligible on
    // the very next supervisor pass — and a failed probe doubling from zero
    // would keep it there (probe storm). Seed it with the freshly configured
    // initial budget, as if it had been quarantined under probation.
    if (cooldown_batches > 0) {
      for (auto& mp : members_) {
        if (mp->health.quarantined && mp->health.cooldown == 0) {
          mp->health.cooldown = cooldown_batches;
          mp->health.cooldown_left = cooldown_batches;
        }
      }
    }
  }

  // Observer for probe outcomes (true = un-quarantined, false =
  // re-quarantined), called from Run() on the pipeline's calling thread.
  // net::Runtime wires this to its registry counters.
  void SetProbeObserver(std::function<void(bool)> observer) {
    probe_observer_ = std::move(observer);
  }

  // Opens probation for every quarantined stage whose cool-down has
  // elapsed: the retired domain is replaced by a freshly created one (Retire
  // is terminal — probation is a new incarnation, not a resurrection), the
  // operator is rebuilt from the factory, and the stage is released from
  // quarantine in probing state so the next batch through decides its fate.
  // A quarantined member is always a singleton group (split-on-fault), so
  // the probe incarnation is a one-member group too; it stays singleton
  // after a successful probe. Caller must serialize with Run() (the Runtime
  // supervisor holds the worker mutex). Returns the number of probes opened.
  std::size_t ProbeQuarantined() {
    if (probation_cooldown_ == 0) {
      return 0;
    }
    std::size_t opened = 0;
    for (auto& gp : groups_) {
      Group& group = *gp;
      Member& member = *group.members.front();
      if (!member.health.quarantined || member.health.probing ||
          member.health.cooldown_left > 0) {
        continue;
      }
      member.health.probes++;
      group.domain = &mgr_->Create(member.health.name + "#p" +
                                   std::to_string(member.health.probes));
      group.rref = group.domain->Export(MakeOps(group));
      Group* raw = &group;
      group.domain->SetRecovery([raw](sfi::Domain& self) {
        raw->rref = self.Export(MakeOps(*raw));
      });
      member.health.quarantined = false;
      member.health.probing = true;
      member.health.attempts_since_success = 0;
      member.fault_since = 0;
      LINSYS_TRACE_INSTANT("runtime.probe_open");
      ++opened;
    }
    return opened;
  }

  // Serializes every stage's state into a StageImage vector — the
  // pipeline's slice of a runtime checkpoint. Quarantined stages are
  // recorded as quarantined with no payload (the degraded state
  // round-trips); stateless stages and stages whose domain is currently
  // unreachable (Failed mid-recovery) are recorded absent and will be
  // rebuilt from their factories on restore. Caller must serialize with
  // Run() and recovery (the worker mutex).
  std::vector<StageImage> CheckpointStages() {
    std::vector<StageImage> images;
    images.reserve(members_.size());
    for (auto& mp : members_) {
      Member& member = *mp;
      StageImage img;
      img.name = member.health.name;
      img.quarantined = member.health.quarantined ? 1 : 0;
      if (!member.health.quarantined) {
        // Serialize inside the member's group domain: a panic in SaveState
        // is contained at the rref boundary like any operator fault. The
        // image shape stays per-operator regardless of fusion, so a
        // checkpoint taken under one schedule restores into any other.
        ckpt::Writer writer(ckpt::DedupMode::kLinearMark, ckpt::NextEpoch());
        auto result = member.group->rref.Call(
            [&writer, slot = member.slot](FusedOps& ops) {
              auto* ckpt_op = dynamic_cast<CkptStage*>(ops.ops[slot].get());
              if (ckpt_op == nullptr) {
                return false;
              }
              ckpt_op->SaveState(writer);
              return true;
            },
            "ckpt.save");
        if (result.ok() && result.value()) {
          ckpt::Snapshot snap = writer.Finish();
          img.present = 1;
          img.bytes.assign(reinterpret_cast<const char*>(snap.bytes.data()),
                           snap.bytes.size());
        }
      }
      images.push_back(std::move(img));
    }
    return images;
  }

  // Restores stage state from a checkpoint image: every running, stateful,
  // non-quarantined stage reloads its flow state from the image through its
  // live rref (LoadState replaces the flow tables wholesale, so no rebuild
  // is needed). Images are keyed by stage *name*, not position — a
  // checkpoint taken under one schedule (or an older pipeline shape)
  // restores into any other; an image naming no current stage is refused
  // and counted in restore_mismatches() rather than aborting the process.
  // Quarantined stages stay quarantined — restoring cannot resurrect a
  // stage the supervisor retired — and Failed domains are left for the
  // supervisor (they come back factory-fresh). Returns how many stages had
  // state reloaded. Caller must serialize with Run() and recovery.
  std::size_t RestoreStages(const std::vector<StageImage>& images) {
    std::size_t restored = 0;
    for (const StageImage& img : images) {
      Member* found = nullptr;
      for (auto& mp : members_) {
        if (mp->health.name == img.name) {
          found = mp.get();
          break;
        }
      }
      if (found == nullptr) {
        // The image belongs to a stage this pipeline does not have: a
        // shape/name mismatch, refused and counted (never an abort — the
        // stages that do match still restore).
        restore_mismatches_++;
        continue;
      }
      Member& member = *found;
      if (img.present == 0 || member.health.quarantined ||
          member.group->domain->state() != sfi::DomainState::kRunning) {
        continue;
      }
      ckpt::Snapshot snap;
      snap.bytes.assign(img.bytes.begin(), img.bytes.end());
      ckpt::Reader reader(snap);
      auto result = member.group->rref.Call(
          [&reader, slot = member.slot](FusedOps& ops) {
            auto* ckpt_op = dynamic_cast<CkptStage*>(ops.ops[slot].get());
            LINSYS_ASSERT(ckpt_op != nullptr,
                          "present image for a stateless stage");
            ckpt_op->LoadState(reader);
          },
          "ckpt.load");
      if (result.ok()) {
        ++restored;
      }
    }
    return restored;
  }

  // Checkpoint images refused by RestoreStages because they named a stage
  // this pipeline does not have (cumulative).
  std::uint64_t restore_mismatches() const { return restore_mismatches_; }

  StageHealth health(std::size_t i) const { return members_[i]->health; }

  std::size_t length() const { return members_.size(); }
  sfi::Domain& domain(std::size_t i) { return *members_[i]->group->domain; }

 private:
  struct Group;

  // One pipeline stage's supervision identity: health, factory, and its
  // current seat (group, slot) in the schedule. Stable address — recovery
  // lambdas and Group::members hold Member*/Group* across regrouping.
  struct Member {
    StageFactory factory;
    StageHealth health;
    std::uint64_t fault_since = 0;  // cycle stamp of the unresolved fault
    std::size_t index = 0;          // flat stage index (add order)
    Group* group = nullptr;         // current fusion group
    std::size_t slot = 0;           // position within the group
  };

  // The operators of one fusion group, living inside its domain.
  struct FusedOps {
    std::vector<std::unique_ptr<Operator>> ops;
  };

  // A fusion group: one protection domain, one rref, one or more members
  // executed back-to-back per Run() call.
  struct Group {
    sfi::Domain* domain = nullptr;
    sfi::RRef<FusedOps> rref;
    std::vector<Member*> members;  // pipeline order
    // Index of the member the domain last entered — written inside the rref
    // call immediately before each member's Process, read by the fault
    // paths to attribute a panic (the unwind leaves it at the culprit).
    std::size_t last_entered = 0;
  };

  static FusedOps MakeOps(const Group& group) {
    FusedOps ops;
    ops.ops.reserve(group.members.size());
    for (const Member* m : group.members) {
      ops.ops.push_back(m->factory());
    }
    return ops;
  }

  static std::string GroupName(const Group& group) {
    std::string name = group.members.front()->health.name;
    for (std::size_t i = 1; i < group.members.size(); ++i) {
      name += "+";
      name += group.members[i]->health.name;
    }
    return name;
  }

  // Creates the domain for `group` (building its operators from the member
  // factories), wires recovery, and updates the members' seat pointers.
  void ActivateGroup(Group& group) {
    for (std::size_t s = 0; s < group.members.size(); ++s) {
      group.members[s]->group = &group;
      group.members[s]->slot = s;
    }
    group.domain = &mgr_->Create(GroupName(group));
    group.rref = group.domain->Export(MakeOps(group));
    Group* raw = &group;
    group.domain->SetRecovery([raw](sfi::Domain& self) {
      raw->rref = self.Export(MakeOps(*raw));
    });
  }

  void Quarantine(Member& member) {
    // Read the faulting flow id off the domain that actually faulted,
    // before a split supersedes it with a fresh one.
    const std::uint64_t fault_flow = member.group->domain->last_fault_flow();
    if (member.group->members.size() > 1) {
      SplitOut(member);
    }
    Group& group = *member.group;  // now a singleton holding `member`
    member.health.quarantined = true;
    // Start (or restart) the probation clock; cooldown is the configured
    // initial on first quarantine and the doubled value on re-quarantine.
    if (member.health.cooldown == 0) {
      member.health.cooldown = probation_cooldown_;
    }
    member.health.cooldown_left = member.health.cooldown;
    LINSYS_TRACE_INSTANT("runtime.quarantine");
    // Close the incident on the faulting flow's async track: the id comes
    // from the domain's fault capture, since quarantine runs on the
    // supervisor thread with no TLS flow context.
    LINSYS_TRACE_ASYNC_INSTANT("flow.quarantine", "flow", fault_flow);
    // Terminal for the domain: rrefs expire, re-entry refused. The *stage*
    // keeps degrading traffic per its policy.
    mgr_->Retire(*group.domain);
  }

  // Splits `member` out of its fused group into a singleton, re-forming the
  // innocent prefix/suffix neighbours into fresh groups (fresh domains,
  // operators rebuilt from their factories — a domain fault destroys
  // everything the domain held, so co-resident state was already gone; this
  // is the blast-radius cost of fusing, documented in DESIGN.md §13). The
  // old group's domain is retired. Pipeline order is preserved, and after
  // the split `member.group` is the new singleton.
  void SplitOut(Member& member) {
    Group* old = member.group;
    std::size_t gi = 0;
    while (groups_[gi].get() != old) {
      ++gi;
    }
    std::vector<std::unique_ptr<Group>> pieces;
    auto piece = std::make_unique<Group>();
    for (Member* m : old->members) {
      if (m == &member && !piece->members.empty()) {
        pieces.push_back(std::move(piece));
        piece = std::make_unique<Group>();
      }
      piece->members.push_back(m);
      if (m == &member) {
        pieces.push_back(std::move(piece));
        piece = std::make_unique<Group>();
      }
    }
    if (!piece->members.empty()) {
      pieces.push_back(std::move(piece));
    }
    // The old domain is dead (Failed) and about to be superseded; Retire is
    // idempotent enough for our purposes — Quarantine() retires the
    // *member's* new singleton domain right after, so retire the old group
    // domain here only if the member's piece gets a fresh one (it always
    // does, below).
    sfi::Domain* old_domain = old->domain;
    for (auto& p : pieces) {
      ActivateGroup(*p);
    }
    mgr_->Retire(*old_domain);
    groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gi));
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      groups_.insert(groups_.begin() + static_cast<std::ptrdiff_t>(gi + k),
                     std::move(pieces[k]));
    }
    LINSYS_TRACE_INSTANT("runtime.group_split");
  }

  sfi::DomainManager* mgr_;
  // unique_ptr entries: recovery lambdas capture Group*, groups hold
  // Member*; addresses must survive vector growth and regrouping.
  std::vector<std::unique_ptr<Member>> members_;  // flat, add order
  std::vector<std::unique_ptr<Group>> groups_;    // pipeline order
  std::uint64_t probation_cooldown_ = 0;  // 0 = probation disabled
  std::uint64_t restore_mismatches_ = 0;
  std::function<void(bool)> probe_observer_;
};

inline void IsolatedPipeline::AddStage(std::string stage_name,
                                       StageFactory factory,
                                       DegradePolicy degrade) {
  auto member = std::make_unique<Member>();
  member->factory = std::move(factory);
  member->health.name = std::move(stage_name);
  member->health.policy = degrade;
  member->index = members_.size();
  auto group = std::make_unique<Group>();
  group->members.push_back(member.get());
  ActivateGroup(*group);
  members_.push_back(std::move(member));
  groups_.push_back(std::move(group));
}

inline void IsolatedPipeline::ApplySchedule(
    const std::vector<std::vector<std::size_t>>& partition) {
  // Validate: the partition must be 0..n-1 in order, contiguous runs.
  std::size_t next = 0;
  for (const auto& cell : partition) {
    LINSYS_ASSERT(!cell.empty(), "empty fusion group in schedule");
    for (std::size_t idx : cell) {
      LINSYS_ASSERT(idx == next, "schedule must partition stages in order");
      ++next;
    }
  }
  LINSYS_ASSERT(next == members_.size(),
                "schedule must cover every stage exactly once");
  for (const auto& mp : members_) {
    LINSYS_ASSERT(!mp->health.quarantined && !mp->health.probing &&
                      mp->group->domain->state() == sfi::DomainState::kRunning,
                  "ApplySchedule needs a healthy pipeline (apply schedules "
                  "before traffic)");
  }
  std::vector<std::unique_ptr<Group>> old_groups = std::move(groups_);
  groups_.clear();
  for (const auto& cell : partition) {
    // Reuse a group whose member list already matches the cell — the
    // interpreted→interpreted case keeps every existing domain (and its
    // operators' state) untouched.
    Group* current = members_[cell.front()]->group;
    bool matches = current->members.size() == cell.size();
    for (std::size_t k = 0; matches && k < cell.size(); ++k) {
      matches = current->members[k] == members_[cell[k]].get();
    }
    if (matches) {
      for (auto& og : old_groups) {
        if (og.get() == current) {
          groups_.push_back(std::move(og));
          break;
        }
      }
      continue;
    }
    auto group = std::make_unique<Group>();
    for (std::size_t idx : cell) {
      group->members.push_back(members_[idx].get());
    }
    ActivateGroup(*group);
    groups_.push_back(std::move(group));
  }
  // Retire every superseded domain (groups not moved into the new shape).
  for (auto& og : old_groups) {
    if (og != nullptr) {
      mgr_->Retire(*og->domain);
    }
  }
}

}  // namespace net

#endif  // LINSYS_SRC_NET_PIPELINE_H_
